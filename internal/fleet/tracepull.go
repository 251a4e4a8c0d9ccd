package fleet

import (
	"sync"
	"time"

	"anufs/internal/obs"
	"anufs/internal/wire"
)

// TraceNode names one pull target for PullTrace: any process speaking the
// wire protocol's trace-pull op (daemon, gateway, standby receiver).
type TraceNode struct {
	// Name is the fallback label when the node reports no identity.
	Name string
	Addr string
}

// DefaultTracePullTimeout bounds one node's pull; unreachable nodes must
// not stall the whole stitch.
const DefaultTracePullTimeout = 2 * time.Second

// PullTrace fetches one trace's spans from every node concurrently and
// returns the per-node results in input order, ready for obs.Stitch. A
// node that cannot be reached (or refuses the op) yields a NodeTrace with
// Err set — the stitcher reports it as a possibly-missing hop instead of
// silently narrowing the timeline. dial overrides the transport (nil uses
// wire.DialTimeout with the default pull timeout).
func PullTrace(trace uint64, nodes []TraceNode, dial func(addr string) (*wire.Client, error)) []obs.NodeTrace {
	if dial == nil {
		dial = func(addr string) (*wire.Client, error) {
			return wire.DialTimeout(addr, DefaultTracePullTimeout)
		}
	}
	out := make([]obs.NodeTrace, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n TraceNode) {
			defer wg.Done()
			out[i] = pullOne(trace, n, dial)
		}(i, n)
	}
	wg.Wait()
	return out
}

func pullOne(trace uint64, n TraceNode, dial func(addr string) (*wire.Client, error)) obs.NodeTrace {
	nt := obs.NodeTrace{Node: n.Name, Addr: n.Addr}
	c, err := dial(n.Addr)
	if err != nil {
		nt.Err = err.Error()
		return nt
	}
	defer c.Close()
	t0 := time.Now()
	spans, node, nowNano, err := c.TracePull(trace)
	t1 := time.Now()
	if err != nil {
		nt.Err = err.Error()
		return nt
	}
	nt.Spans = spans
	if node != "" {
		nt.Node = node
	}
	// The remote clock sample maps to the local midpoint of the pull's
	// round trip: the best single-exchange skew estimate (error ≤ RTT/2).
	nt.Now = time.Unix(0, nowNano)
	nt.PulledAt = t0.Add(t1.Sub(t0) / 2)
	return nt
}
