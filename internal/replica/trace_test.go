package replica

import (
	"testing"
	"time"

	"anufs/internal/journal"
	"anufs/internal/obs"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// TestShipCarriesTraceToStandbyAck: a traced journal append keeps its
// trace ID through log shipping — the primary records a replica-ship span
// tagged with its daemon ID, the standby a standby-ack span naming the
// originating daemon — and the standby answers trace-pull for it, so a
// fleet-stitched timeline extends to the replication tail.
func TestShipCarriesTraceToStandbyAck(t *testing.T) {
	sObs := obs.New()
	sObs.SetNode("standby")
	recv, addr := startStandby(t, t.TempDir(), ReceiverOptions{Obs: sObs})
	_ = recv

	pObs := obs.New()
	pObs.SetNode("daemon-2")
	jnl, store := openJournal(t, t.TempDir(), journal.Options{})
	defer jnl.Close()

	const trace = 424242
	if err := jnl.LogCreateFileSet("fs00"); err != nil {
		t.Fatal(err)
	}
	ship, err := NewShipper(ShipperOptions{
		Addr: addr, Journal: jnl, Images: store.Images,
		Obs: pObs, DaemonID: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ship.Start()
	defer ship.Stop()
	// The trace rides the offer the committer makes at gather time (the log
	// keeps none), so the traced append comes with the stream up.
	waitAcked(t, ship, jnl.DurableSeq())
	d := sharedisk.Delta{Base: 1, Puts: map[string]sharedisk.Record{"/t": {Size: 1, Owner: "w"}}}
	w, err := jnl.LogDelta(trace, "fs00", d)
	if err == nil {
		err = w.Wait()
	}
	if err != nil {
		t.Fatal(err)
	}
	appendFlushes(t, jnl, "fs00", 3, 3) // untraced neighbours ship too
	waitAcked(t, ship, jnl.DurableSeq())

	var shipSpan obs.Span
	for _, s := range pObs.Spans.ByTrace(trace) {
		if s.Name == "replica-ship" {
			shipSpan = s
		}
	}
	if shipSpan.Trace != trace || shipSpan.Server != 2 {
		t.Fatalf("replica-ship span = %+v (want trace %d from daemon 2)", shipSpan, trace)
	}

	// The standby recorded the ack span and serves it over trace-pull.
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(5 * time.Second)
	spans, node, now, err := c.TracePull(trace)
	if err != nil {
		t.Fatal(err)
	}
	if node != "standby" || now == 0 {
		t.Fatalf("trace-pull identity = %q, now = %d", node, now)
	}
	var ack obs.Span
	for _, s := range spans {
		if s.Name == "standby-ack" {
			ack = s
		}
	}
	if ack.Trace != trace || ack.Server != 2 {
		t.Fatalf("standby-ack span = %+v (want trace %d naming originating daemon 2)", ack, trace)
	}
	if ack.Node != "standby" {
		t.Fatalf("ack span node = %q", ack.Node)
	}
	// An unknown trace must not invent spans.
	if got, _, _, err := c.TracePull(777); err != nil || len(got) != 0 {
		t.Fatalf("unknown trace grew spans: %+v, %v", got, err)
	}
}
