package main

import (
	"io"
	"testing"
)

// The process-level smoke test: a real fleet, one second of read-mostly,
// the traced window and the ladder, the correctness gate.
func TestSmokeReadMostly(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bins, _, err := buildBinaries(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAll)
	w, _ := findWorkload(wlReadMostly)
	w.WarmupSecs = 1
	e := &env{bins: bins, base: t.TempDir(), clients: 2, out: io.Discard}
	res, spans, err := runWorkload(e, w, 1, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d findings=%v", res.Correct, res.Attempted, res.Failed, res.Findings)
	}
	for _, m := range endToEnd {
		// read-mostly never journals: that is its prediction.
		if want := m.Name != "journal_bytes_per_write"; m.Contract && want != (res.EndToEnd[m.Name] > 0) {
			t.Errorf("end-to-end metric %s = %v", m.Name, res.EndToEnd[m.Name])
		}
	}
	if got := res.PerLayer["journal.fsyncs_per_write"]; got != 0 {
		t.Errorf("journal fsyncs during read-mostly = %v, want 0", got)
	}
	if got := res.PerLayer["wire.fastpath_ratio"]; got != 1 {
		t.Errorf("wire.fastpath_ratio = %v on read-mostly, want 1", got)
	}
	if res.PerLayer["gateway.hop_self_us"] <= 0 || len(res.Table) == 0 || len(spans) == 0 {
		t.Errorf("traced run produced no gateway rung, layer table or spans")
	}
	if line, err := contractLine(res); err != nil || len(line) == 0 {
		t.Errorf("contract line: %v", err)
	}
}
