package sdk

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"anufs/internal/obs"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// TestClientTracePropagation: a client built with an obs registry mints a
// trace per op, records the edge "sdk-call" span locally, and carries the
// context to the daemon — whose "wire" span lands under the same trace,
// parented by the client's span ID.
func TestClientTracePropagation(t *testing.T) {
	f := startFleet(t, 1)
	reg := obs.New()
	reg.SetNode("client")
	c, err := NewClient(Options{Authority: f.authority(), Timeout: 5 * time.Second, Budget: 5 * time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("vol00", "/a", sharedisk.Record{Size: 1}); err != nil {
		t.Fatal(err)
	}
	trace := c.LastTrace()
	if trace == 0 {
		t.Fatal("traced client minted no trace ID")
	}

	var edge obs.Span
	for _, s := range reg.Spans.ByTrace(trace) {
		if s.Name == "sdk-call" {
			edge = s
		}
	}
	if edge.ID == 0 || edge.Op != string(wire.OpCreate) || edge.Node != "client" {
		t.Fatalf("sdk-call span = %+v", edge)
	}

	wc, err := wire.Dial(f.daemons[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	spans, _, now, err := wc.TracePull(trace)
	if err != nil {
		t.Fatal(err)
	}
	if now == 0 {
		t.Fatal("trace-pull returned no clock sample")
	}
	var wireSpan obs.Span
	for _, s := range spans {
		if s.Name == "wire" {
			wireSpan = s
		}
	}
	if wireSpan.Trace != trace || wireSpan.Op != string(wire.OpCreate) {
		t.Fatalf("daemon wire span = %+v (want trace %d)", wireSpan, trace)
	}
	if wireSpan.Parent != edge.ID {
		t.Fatalf("wire span parent = %d, want the sdk-call span ID %d", wireSpan.Parent, edge.ID)
	}
}

// TestClientBatchTraceFolding: with batching on, each folded op keeps its
// own trace, the batch request adopts the first item's trace, and the
// daemon records batch-fold link spans tying sibling traces to the batch
// trace — so any one op's trace leads the stitcher to the whole group.
func TestClientBatchTraceFolding(t *testing.T) {
	f := startFleet(t, 1)
	reg := obs.New()
	c, err := NewClient(Options{
		Authority:  f.authority(),
		Timeout:    5 * time.Second,
		Budget:     5 * time.Second,
		BatchDelay: 20 * time.Millisecond,
		MaxBatch:   64,
		Obs:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}

	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Create("vol00", "/p"+string(rune('a'+i)), sharedisk.Record{Size: 1})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}

	// The client recorded one sdk-call per op and at least one sdk-batch
	// ship; every sdk-call trace is distinct.
	var calls, batches int
	callTraces := map[uint64]bool{}
	var batchTraces []uint64
	for _, s := range reg.Spans.Snapshot(0) {
		switch s.Name {
		case "sdk-call":
			calls++
			if s.Trace == 0 || callTraces[s.Trace] {
				t.Fatalf("sdk-call trace %d duplicated or zero", s.Trace)
			}
			callTraces[s.Trace] = true
		case "sdk-batch":
			batches++
			batchTraces = append(batchTraces, s.Trace)
		}
	}
	if calls != writers || batches == 0 || batches >= writers {
		t.Fatalf("calls=%d batches=%d (want %d calls and 1..%d batches)", calls, batches, writers, writers-1)
	}

	// The daemon linked the folded siblings: a batch that carried more than
	// one op (fewer batches than ops, so there is one; the write that found
	// the file set idle went alone) has a batch-fold span on its trace whose
	// Links name other ops' traces.
	wc, err := wire.Dial(f.daemons[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	var batchTrace uint64
	linked := map[uint64]bool{}
	for _, bt := range batchTraces {
		if !callTraces[bt] {
			t.Fatalf("batch trace %d is not one of the folded ops' traces (adoption broken)", bt)
		}
		spans, _, _, err := wc.TracePull(bt)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range spans {
			if s.Name == "batch-fold" && s.Trace == bt {
				for _, l := range s.Links {
					linked[l] = true
				}
			}
		}
		if len(linked) > 0 {
			batchTrace = bt
			break
		}
	}
	if len(linked) == 0 {
		t.Fatalf("no batch-fold links on any of the %d batch traces", len(batchTraces))
	}
	for l := range linked {
		if !callTraces[l] {
			t.Fatalf("fold link %d is not a client op trace", l)
		}
	}
	// And the reverse direction: a sibling's own trace links back.
	for sib := range linked {
		sibSpans, _, _, err := wc.TracePull(sib)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, s := range sibSpans {
			if s.Name == "batch-fold" {
				for _, l := range s.Links {
					if l == batchTrace {
						found = true
					}
				}
			}
		}
		if !found {
			t.Fatalf("sibling trace %d has no fold span linking back to batch trace %d", sib, batchTrace)
		}
		break
	}
}

// TestGatewayTraceEdge: a plain wire client through a traced gateway gets
// a trace minted at the edge, learns it from resp.Trace, and both the
// gateway hop and the daemon hop answer trace-pull for it.
func TestGatewayTraceEdge(t *testing.T) {
	f := startFleet(t, 1)
	reg := obs.New()
	reg.SetNode("gw")
	gw, err := NewGateway(GatewayConfig{Authority: f.authority(), Budget: 5 * time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		t.Fatal(err)
	}
	go gw.ServeListener(ln)
	t.Cleanup(func() {
		ln.Close()
		gw.Close()
	})

	wc, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	if err := wc.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	if err := wc.Create("vol00", "/a", sharedisk.Record{Size: 1}); err != nil {
		t.Fatal(err)
	}
	trace := wc.LastTrace()
	if trace == 0 {
		t.Fatal("gateway did not hand back the trace it minted")
	}

	gwSpans, node, _, err := wc.TracePull(trace)
	if err != nil {
		t.Fatal(err)
	}
	if node != "gw" {
		t.Fatalf("gateway trace-pull node = %q", node)
	}
	var edge obs.Span
	for _, s := range gwSpans {
		if s.Name == "gateway" {
			edge = s
		}
	}
	if edge.Trace != trace || edge.ID == 0 {
		t.Fatalf("gateway span = %+v", edge)
	}

	dc, err := wire.Dial(f.daemons[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	dSpans, _, _, err := dc.TracePull(trace)
	if err != nil {
		t.Fatal(err)
	}
	var wireSpan obs.Span
	for _, s := range dSpans {
		if s.Name == "wire" && s.Op == string(wire.OpCreate) {
			wireSpan = s
		}
	}
	if wireSpan.Trace != trace {
		t.Fatalf("daemon has no wire span for gateway trace %d: %+v", trace, dSpans)
	}
	if wireSpan.Parent != edge.ID {
		t.Fatalf("daemon wire span parent = %d, want gateway span ID %d", wireSpan.Parent, edge.ID)
	}
	// Each op's latency lands in the histogram labelled with that op.
	for op, want := range map[string]int64{"create-fileset": 1, "create": 1, "stat": 0} {
		if got := reg.Hist.Get("gw_request_seconds", fmt.Sprintf("op=%q", op)).Summarize().Count; got != want {
			t.Errorf("gw_request_seconds{op=%q} counted %d requests, want %d", op, got, want)
		}
	}

	// OpTrace against the gateway dumps its own edge spans, like a daemon
	// dumps its ring ("anufsctl -addr <gw> trace last" must work).
	dumped, err := wc.Trace(trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range dumped {
		if s.Name == "gateway" && s.Trace == trace {
			found = true
		}
	}
	if !found {
		t.Fatalf("gateway OpTrace dump misses its own edge span: %+v", dumped)
	}

	// A fileset-less Sync fans out to every daemon WITH the trace context:
	// the barrier's per-daemon checkpoints join the stitched timeline.
	if err := wc.Sync(); err != nil {
		t.Fatal(err)
	}
	syncTrace := wc.LastTrace()
	if syncTrace == 0 || syncTrace == trace {
		t.Fatalf("sync trace = %d (want a fresh edge-minted trace)", syncTrace)
	}
	dSpans, _, _, err = dc.TracePull(syncTrace)
	if err != nil {
		t.Fatal(err)
	}
	var syncSpan obs.Span
	for _, s := range dSpans {
		if s.Name == "wire" && s.Op == string(wire.OpSync) {
			syncSpan = s
		}
	}
	if syncSpan.Trace != syncTrace || syncSpan.Parent == 0 {
		t.Fatalf("fanned-out sync dropped trace context on the daemon: %+v", dSpans)
	}
}
