package main

import (
	"testing"

	"anufs/internal/sharedisk"
)

func TestVerifierCatchesAPlantedLostWrite(t *testing.T) {
	led := newLedger()
	store := map[[2]int]sharedisk.Record{}
	for p := 0; p < 50; p++ {
		led.acked[[2]int{1, p}] = uint32(p + 1)
		store[[2]int{1, p}] = recordFor(1, p, uint32(p+1))
	}
	get := func(fs, path int) (sharedisk.Record, bool, error) {
		rec, ok := store[[2]int{fs, path}]
		return rec, ok, nil
	}
	if checked, wrong, err := mismatches([]*ledger{led}, get); checked != 50 || wrong != 0 || err != nil {
		t.Fatalf("intact store: checked=%d wrong=%d err=%v", checked, wrong, err)
	}

	// A write the store lost: it still holds the value before the last ack.
	store[[2]int{1, 7}] = recordFor(1, 7, 3)
	if _, wrong, err := mismatches([]*ledger{led}, get); wrong != 1 || err == nil {
		t.Fatalf("stale value: wrong=%d err=%v, want 1 and an error", wrong, err)
	}
	// A record that is gone altogether.
	delete(store, [2]int{1, 9})
	if _, wrong, _ := mismatches([]*ledger{led}, get); wrong != 2 {
		t.Fatalf("missing record: wrong=%d, want 2", wrong)
	}
	// A key whose last write failed has no defined value and is skipped.
	led.unknown[[2]int{1, 7}] = true
	if checked, wrong, _ := mismatches([]*ledger{led}, get); checked != 49 || wrong != 1 {
		t.Fatalf("unknown key: checked=%d wrong=%d, want 49 and 1", checked, wrong)
	}
}

func TestStatAnswersAreCheckedAgainstTheLedger(t *testing.T) {
	w, _ := findWorkload(wlReadMostly)
	l := &loop{c: &client{w: w}, led: newLedger(), writers: 2, index: 1}
	own := op{Kind: opStat, FileSet: 2, Path: 5} // 5 % 2 == 1: this client's key
	l.led.acked[[2]int{2, 5}] = 9
	if err := l.check(own, recordFor(2, 5, 9)); err != nil {
		t.Errorf("last acked value refused: %v", err)
	}
	if err := l.check(own, recordFor(2, 5, 8)); err == nil {
		t.Error("a stale value of an own key passed")
	}
	if err := l.check(own, recordFor(2, 4, 9)); err == nil {
		t.Error("the value of another key passed")
	}
	other := op{Kind: opStat, FileSet: 2, Path: 4} // another client's key: any seq
	if err := l.check(other, recordFor(2, 4, 123)); err != nil {
		t.Errorf("another writer's key refused: %v", err)
	}
}
