package wire

import (
	"fmt"
	"testing"
	"time"

	"anufs/internal/live"
	"anufs/internal/sharedisk"
)

// TestConnChurnReapsAndAggregates closes many short-lived connections and
// requires both halves of the per-connection accounting contract: the live
// map shrinks back (no growth proportional to historical connections), and
// the closed connections' request/error totals survive in the retained
// aggregate instead of vanishing with the map entries.
func TestConnChurnReapsAndAggregates(t *testing.T) {
	disk := sharedisk.NewStore(0)
	if err := disk.CreateFileSet("fs00"); err != nil {
		t.Fatal(err)
	}
	cfg := live.DefaultConfig()
	cfg.Window = time.Hour
	cfg.OpCost = 0
	cl, err := live.NewCluster(cfg, disk, map[int]float64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		cl.Stop()
	})

	const churn = 50
	for i := 0; i < churn; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Owner("fs00"); err != nil { // one good request
			t.Fatal(err)
		}
		if _, err := c.Stat("fs00", fmt.Sprintf("/missing%d", i)); err == nil { // one failing request
			t.Fatal("stat of missing path succeeded")
		}
		c.Close()
	}

	// Teardown of each connection's handler is asynchronous; wait for the
	// live map to drain and the aggregate to catch up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.ep.mu.Lock()
		live, closed := len(srv.ep.conns), srv.ep.closedConns
		srv.ep.mu.Unlock()
		if live == 0 && closed == churn {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after churn: %d live conns, %d closed (want 0 live, %d closed)", live, closed, churn)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The aggregate is visible over the protocol and accounts for every
	// request the dead connections made.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	agg, n, err := c.ClosedConnStats()
	if err != nil {
		t.Fatal(err)
	}
	if n != churn || agg == nil {
		t.Fatalf("closed aggregate covers %d conns (%+v), want %d", n, agg, churn)
	}
	if agg.Requests != churn*2 || agg.Errors != churn {
		t.Fatalf("closed aggregate %+v, want %d requests / %d errors", agg, churn*2, churn)
	}
	// Only the stats connection itself is still live.
	_, conns, err := c.WireStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(conns) != 1 {
		t.Fatalf("live conn breakdown has %d entries, want 1: %+v", len(conns), conns)
	}
}
