package main

import (
	"fmt"
	"time"

	"anufs/internal/journal"
	"anufs/internal/sharedisk"
)

// The correctness gate, run after every workload: every acked write is read
// back with its last acked value, and after the durable workloads every
// daemon is SIGKILLed and its journal replayed from this process — an acked
// durable write that the replay does not hold is a lost write.

// lookup answers what a store holds for (file set index, path index).
type lookup func(fs, path int) (sharedisk.Record, bool, error)

// mismatches counts the acked keys whose current value is not the last
// acked one. Keys whose last write failed are skipped: their state is
// legitimately unknown (and the failure already counted against the run).
func mismatches(leds []*ledger, get lookup) (checked, wrong int, first error) {
	for _, led := range leds {
		for key, seq := range led.acked {
			if led.unknown[key] {
				continue
			}
			checked++
			want := recordFor(key[0], key[1], seq)
			got, ok, err := get(key[0], key[1])
			switch {
			case err != nil:
			case !ok:
				err = fmt.Errorf("acked write %d/%d (seq %d) is gone", key[0], key[1], seq)
			case !sameValue(got, want):
				err = fmt.Errorf("acked write %d/%d reads %+v, last acked %+v", key[0], key[1], got, want)
			}
			if err != nil {
				wrong++
				if first == nil {
					first = err
				}
			}
		}
	}
	return checked, wrong, first
}

// readBack checks the ledgers against the live fleet through c, the same
// path the workload used.
func readBack(c *client, leds []*ledger) (checked, wrong int, first error) {
	return mismatches(leds, func(fs, path int) (sharedisk.Record, bool, error) {
		rec, err := c.do(op{Kind: opStat, FileSet: fs, Path: path})
		return rec, err == nil, err
	})
}

// crashReport is what the SIGKILL + replay check found.
type crashReport struct {
	ackedLost    int
	checked      int
	first        error
	recover      time.Duration // journal.Recover over every data daemon's directory
	imageRecords float64       // mean records per recovered image of the file sets the workload writes
}

// crashCheck SIGKILLs every process of the fleet, replays each data
// daemon's journal directory with journal.Recover, and counts acked writes
// the replayed images do not hold.
func crashCheck(w workloadSpec, f *fleet, leds []*ledger) (crashReport, error) {
	var rep crashReport
	for _, p := range f.all() {
		p.kill()
	}
	stores := make([]*sharedisk.Store, len(f.daemons))
	for i, d := range f.daemons {
		st, info, err := journal.Recover(d.dir)
		if err != nil {
			return rep, fmt.Errorf("replay %s: %w", d.name, err)
		}
		stores[i] = st
		rep.recover += info.Duration
	}
	images := make([]*sharedisk.Image, len(f.names))
	get := func(fs, path int) (sharedisk.Record, bool, error) {
		if images[fs] == nil {
			im, err := stores[f.owner[fs]].Load(f.names[fs])
			if err != nil {
				return sharedisk.Record{}, false, nil // the file set itself is gone
			}
			images[fs] = &im
		}
		rec, ok := images[fs].Records[pathName(path)]
		return rec, ok, nil
	}
	rep.checked, rep.ackedLost, rep.first = mismatches(leds, get)
	n := 0
	for fs := range f.names {
		if !wrote(w, fs) {
			continue
		}
		if get(fs, 0); images[fs] != nil { // get loads the image on first use
			rep.imageRecords += float64(len(images[fs].Records))
			n++
		}
	}
	if n > 0 {
		rep.imageRecords /= float64(n)
	}
	return rep, nil
}
