package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"anufs/internal/plot"
)

// artifact renders an output as the bytes cmd/expall derives from it: each
// run's CSV and move count, then the notes.
func artifact(t *testing.T, out *Output) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, r := range out.Runs {
		fmt.Fprintf(&b, "run %s moves=%d\n", r.Label, r.Result.Moves)
		if err := plot.WriteCSV(&b, r.Result.Series); err != nil {
			t.Fatalf("%s/%s: WriteCSV: %v", out.ID, r.Label, err)
		}
	}
	for _, n := range out.Notes {
		fmt.Fprintf(&b, "note %s\n", n)
	}
	return b.Bytes()
}

// TestEverySameSeedRunIsByteIdentical holds the simulator to its seed: every
// registered experiment, run again, writes the same bytes. A wall-clock read,
// a draw from the process-global rand stream or a map-ordered loop anywhere
// under an experiment (desim, placement, core, hashfam and everything they
// feed) shows up as a difference here. A map-ordered loop can agree with
// itself by chance, so each experiment is rerun several times: the
// map-order bug this was sized on (servers rebuilt from a map in
// core.Delegate.Update) escapes one rerun about a third of the time.
func TestEverySameSeedRunIsByteIdentical(t *testing.T) {
	const reruns = 3
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			first := artifact(t, runQuick(t, id))
			for rerun := 1; rerun <= reruns; rerun++ {
				again := artifact(t, runQuick(t, id))
				if bytes.Equal(first, again) {
					continue
				}
				i := 0
				for i < len(first) && i < len(again) && first[i] == again[i] {
					i++
				}
				lo := max(i-80, 0)
				t.Fatalf("rerun %d differs at byte %d:\nfirst: %q\nrerun: %q",
					rerun, i, first[lo:min(i+80, len(first))], again[lo:min(i+80, len(again))])
			}
		})
	}
}
