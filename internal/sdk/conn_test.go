package sdk

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"anufs/internal/obs"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// Dial yields the wire's pipelined connection: many concurrent calls share
// it, and with a registry its depth lands in sdk_pipeline_depth.
func TestDialPipelines(t *testing.T) {
	f := startFleet(t, 1)
	reg := obs.New()
	c, err := Dial(f.daemons[0].addr, Options{Timeout: 5 * time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := f.auth.Assign("fs00", 0); err != nil {
		t.Fatal(err)
	}
	// The member adopts the assignment on its next map poll; retry briefly.
	var cerr error
	for i := 0; i < 100; i++ {
		if _, cerr = c.Call(wire.Request{Op: wire.OpCreateFileSet, FileSet: "fs00"}); cerr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if cerr != nil {
		t.Fatal(cerr)
	}
	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/f%02d", i)
			_, err := c.Call(wire.Request{Op: wire.OpCreate, FileSet: "fs00", Path: path,
				Record: &sharedisk.Record{Size: int64(i)}})
			if err == nil {
				var resp wire.Response
				resp, err = c.Call(wire.Request{Op: wire.OpStat, FileSet: "fs00", Path: path})
				if err == nil && (resp.Record == nil || resp.Record.Size != int64(i)) {
					err = fmt.Errorf("stat record %v, want size %d", resp.Record, i)
				}
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if c.InFlight() != 0 {
		t.Fatalf("in-flight count %d after all calls returned", c.InFlight())
	}
	if n := reg.Hist.Get("sdk_pipeline_depth", "").Summarize().Count; n < 2*workers {
		t.Fatalf("sdk_pipeline_depth observed %d calls, want >= %d", n, 2*workers)
	}
}
