package main

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"anufs/internal/fleet"
	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/sdk"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// TestFleetTraceEndToEnd is the tracing tentpole's acceptance test: one
// batched durable write enters at a gateway, gets rerouted off a stale
// owner mid-flight, lands on the journaling authority daemon, and is
// log-shipped to a standby — and a single fleet trace pull stitches every
// hop of that journey into one timeline:
//
//	gateway edge → route-retry (wrong-owner) → owner queue-wait/apply →
//	journal-commit-wait → standby-ack
//
// all under the one trace ID the gateway handed back to the client.
func TestFleetTraceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	d0Addr, d1Addr, sAddr := freeAddr(t), freeAddr(t), freeAddr(t)
	d0Dir, sDir := t.TempDir(), t.TempDir()
	roster := fmt.Sprintf("0=%s@1,1=%s@1", d0Addr, d1Addr)
	common := "-filesets 4 -speeds 1 -window 1h -opcost 0 -checkpoint-interval 0"

	// Standby first so the primary's sync-gated appends can ack at once.
	startDaemonArgs(t, fmt.Sprintf(
		"-standby -listen %s -journal-dir %s -node standby %s", sAddr, sDir, common))
	waitListening(t, sAddr)

	// Daemon 0: fleet authority, journaling, sync-replicating to the
	// standby — the hop where apply, journal commit, and shipping happen.
	for _, args := range []string{
		fmt.Sprintf("-listen %s -fleet 0 -fleet-authority %s -journal-dir %s -replicate-to %s -replicate-sync -sync-timeout 10s %s",
			d0Addr, roster, d0Dir, sAddr, common),
		fmt.Sprintf("-listen %s -fleet 1 -fleet-join %s %s", d1Addr, d0Addr, common),
	} {
		startDaemonArgs(t, args)
	}
	waitListening(t, d0Addr)
	waitListening(t, d1Addr)

	// An in-process gateway with its own registry is the traced edge.
	reg := obs.New()
	reg.SetNode("gw")
	gw, err := sdk.NewGateway(sdk.GatewayConfig{Authority: d0Addr, Budget: 15 * time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		t.Fatal(err)
	}
	gwAddr := ln.Addr().String()
	go gw.ServeListener(ln)
	t.Cleanup(func() {
		ln.Close()
		gw.Close()
	})

	// Pick a file set the initial map places on daemon 1.
	ac := dialRetry(t, d0Addr)
	defer ac.Close()
	ac.SetTimeout(15 * time.Second)
	encoded, err := ac.ClusterMap()
	if err != nil {
		t.Fatal(err)
	}
	cm, err := placement.DecodeClusterMap(encoded)
	if err != nil {
		t.Fatal(err)
	}
	fs := ""
	for name, owner := range cm.Assign {
		if owner == 1 {
			fs = name
			break
		}
	}
	if fs == "" {
		t.Fatalf("no file set assigned to daemon 1 in %+v", cm.Assign)
	}

	// Warm the gateway's map cache on that file set, then move it to
	// daemon 0 directly at the authority — NOT through the gateway, so its
	// cache stays stale and the next write must reroute mid-flight.
	wc := dialRetry(t, gwAddr)
	defer wc.Close()
	wc.SetTimeout(15 * time.Second)
	if err := wc.Create(fs, "/warm", sharedisk.Record{Size: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.Assign(fs, 0); err != nil {
		t.Fatal(err)
	}

	// The traced request: a durable batch through the stale gateway.
	items := []wire.BatchItem{
		{Op: wire.OpCreate, Path: "/traced-a", Record: &sharedisk.Record{Size: 2}},
		{Op: wire.OpCreate, Path: "/traced-b", Record: &sharedisk.Record{Size: 3}},
	}
	results, err := wc.Batch(fs, true, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != "" {
			t.Fatalf("batch item %d: %s", i, r.Err)
		}
	}
	trace := wc.LastTrace()
	if trace == 0 {
		t.Fatal("gateway returned no trace ID for the batch")
	}

	// Pull the trace from every hop and stitch. The standby absorbs the
	// shipped entries asynchronously of our view, so poll until its ack
	// span shows up (sync replication makes this quick).
	nodes := []fleet.TraceNode{
		{Name: "gw", Addr: gwAddr},
		{Name: "daemon-0", Addr: d0Addr},
		{Name: "daemon-1", Addr: d1Addr},
		{Name: "standby", Addr: sAddr},
	}
	var ft *obs.FleetTrace
	deadline := time.Now().Add(10 * time.Second)
	for {
		ft = obs.Stitch(trace, fleet.PullTrace(trace, nodes, nil))
		if hasSpan(ft, "standby-ack") || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	var sb strings.Builder
	ft.WriteTimeline(&sb)
	t.Logf("stitched timeline:\n%s", sb.String())

	for _, h := range ft.Hops {
		if h.Err != "" {
			t.Fatalf("hop %s failed to answer the trace pull: %s", h.Node, h.Err)
		}
	}
	for _, name := range []string{
		"gateway",             // the edge span, on node gw
		"route-retry",         // the stale-map reroute, on node gw
		"wire",                // the owner's wire handler
		"queue-wait", "apply", // the owner's server queue
		"journal-commit-wait", // the durable group commit
		"standby-ack",         // the standby applied the shipped entries
	} {
		if !hasSpan(ft, name) {
			t.Fatalf("stitched trace %d is missing a %q span:\n%s", trace, name, sb.String())
		}
	}
	// The reroute must name its reason, and the hops must carry the node
	// identities the stitcher keyed on.
	byName := map[string]obs.Span{}
	for _, s := range ft.Spans {
		if s.Trace == trace {
			byName[s.Name] = s
		}
	}
	if rr := byName["route-retry"]; rr.Op != "wrong-owner" || rr.Node != "gw" {
		t.Fatalf("route-retry span = %+v (want reason wrong-owner on node gw)", rr)
	}
	if ga := byName["gateway"]; ga.Node != "gw" || ga.Op != string(wire.OpBatch) {
		t.Fatalf("gateway span = %+v", ga)
	}
	if sa := byName["standby-ack"]; sa.Node != "standby" || sa.Server != 0 {
		t.Fatalf("standby-ack span = %+v (want originating daemon 0 on node standby)", sa)
	}
	if ap := byName["apply"]; ap.Node != "daemon-0" {
		t.Fatalf("apply span ran on %q, want daemon-0 (the post-reroute owner)", ap.Node)
	}
}

func hasSpan(ft *obs.FleetTrace, name string) bool {
	for _, s := range ft.Spans {
		if s.Name == name {
			return true
		}
	}
	return false
}
