package wire

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anufs/internal/obs"
)

// DefaultSlowThreshold classifies a request as slow for an endpoint's
// <name>_slow_requests counter and its connections' Slow count.
const DefaultSlowThreshold = 500 * time.Millisecond

// Endpoint is one wire listener and everything a process does with a
// request before its own handler sees it. The daemon (Server), the gateway
// (sdk.Gateway) and the standby (replica.Receiver) each give one an op
// handler and keep none of this themselves:
//
//   - the listener: Listen, the accept loop, the set of open connections,
//     each served by a FrameServer and accounted in a ConnStat, and a Close
//     that returns once every handler has exited;
//   - the per-request edge: the trace, the <name>_requests, <name>_errors
//     and <name>_slow_requests counters, the op's <name>_request_seconds
//     histogram, found by op code, and for a traced request the edge span
//     and slow-trace promotion;
//   - the answers every process gives from its own registry (Local).
//
// Which requests join a trace is the op table's call (OpInfo.Untraced), so
// it is the same at every edge. A request that joins one reaches the
// handler with Trace set to its trace, minted here when the sender
// supplied none, and Parent set to the edge span's ID, so the handler's
// spans and every call it relays downstream parent under this hop. The
// response echoes the trace.
type Endpoint struct {
	reg     *obs.Registry
	name    string // metric prefix: <name>_requests, <name>_errors, ...
	span    string // the edge span's name
	ceiling int    // frame payload ceiling of this listener
	handle  func(Request) Response

	requests, errors, slow, badFrames *obs.Counter
	// depth observes a connection's requests in flight at each admission,
	// a count encoded as nanoseconds: bucket boundaries read as counts.
	depth *obs.Histogram
	// opHists holds each op's <name>_request_seconds histogram at the op's
	// Code in Ops, made on the op's first request: a label is formatted and
	// looked up once per op, not once per request.
	opHists [256]atomic.Pointer[obs.Histogram]

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]*connState
	closed bool
	// closedAgg folds the accounting of disconnected connections (whose
	// conns entries are reaped on close) into one retained aggregate, so
	// per-connection totals survive connection churn with O(1) state.
	closedAgg   ConnStat
	closedConns int64
	wg          sync.WaitGroup // the accept loop and every connection
}

// NewEndpoint makes an endpoint that records into reg under name, names
// its edge spans span, refuses frames above ceiling bytes of payload, and
// serves every decoded request with handle, concurrently. Listen starts it.
func NewEndpoint(reg *obs.Registry, name, span string, ceiling int, handle func(Request) Response) *Endpoint {
	e := &Endpoint{
		reg: reg, name: name, span: span, ceiling: ceiling, handle: handle,
		requests:  reg.Counter(name + "_requests"),
		errors:    reg.Counter(name + "_errors"),
		slow:      reg.Counter(name + "_slow_requests"),
		badFrames: reg.Counter(name + "_bad_frames"),
		depth:     reg.Hist.Get(name+"_pipeline_depth", ""),
		conns:     map[net.Conn]*connState{},
	}
	open, closed, inflight := name+"_open_connections", name+"_closed_connections", name+"_inflight_requests"
	reg.AddGauges(func() []obs.Gauge {
		e.mu.Lock()
		n, nc := len(e.conns), e.closedConns
		var in int64
		for _, cs := range e.conns {
			in += cs.inflight.Load()
		}
		e.mu.Unlock()
		return []obs.Gauge{
			{Name: open, Value: float64(n)},
			{Name: closed, Value: float64(nc)},
			{Name: inflight, Value: float64(in)},
		}
	})
	return e
}

// Listen starts accepting on addr ("host:port"; ":0" picks a free port)
// and returns the bound address. Serving happens on background goroutines.
func (e *Endpoint) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		ln.Close()
		return "", errors.New("wire: server closed")
	}
	e.ln = ln
	e.wg.Add(1)
	go e.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (e *Endpoint) acceptLoop(ln net.Listener) {
	defer e.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		cs := &connState{ep: e, remote: conn.RemoteAddr().String()}
		e.conns[conn] = cs
		e.wg.Add(1)
		e.mu.Unlock()
		go e.serveConn(conn, cs)
	}
}

func (e *Endpoint) serveConn(conn net.Conn, cs *connState) {
	defer e.wg.Done()
	(&FrameServer{Handle: func(req Request) Response { return e.serve(cs, req) }, conn: cs}).Serve(conn, e.ceiling)
	conn.Close()
	// Reap the connection's entry but keep its totals: fold them into the
	// closed-connection aggregate under the same lock, so stats never
	// double-count a connection mid-teardown and the map stays bounded by
	// the number of live connections.
	e.mu.Lock()
	delete(e.conns, conn)
	e.closedConns++
	e.closedAgg.Requests += cs.requests.Load()
	e.closedAgg.Errors += cs.errors.Load()
	e.closedAgg.Slow += cs.slow.Load()
	e.closedAgg.BadFrames += cs.badFrames.Load()
	e.mu.Unlock()
}

// Close stops accepting, closes every connection and returns once every
// handler has exited. Idempotent.
func (e *Endpoint) Close() {
	e.mu.Lock()
	e.closed = true
	if e.ln != nil {
		e.ln.Close()
	}
	for conn := range e.conns {
		conn.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// serve is the per-request edge around the handler (see Endpoint).
func (e *Endpoint) serve(cs *connState, req Request) Response {
	start := time.Now()
	info, known := Lookup(req.Op)
	var trace, span, parent uint64
	if !info.Untraced {
		trace, span, parent = req.Trace, e.reg.NextSpanID(), req.Parent
		if trace == 0 {
			trace = e.reg.NextTraceID()
		}
		req.Trace, req.Parent = trace, span
	}
	resp := e.handle(req)
	dur := time.Since(start)
	if known {
		e.opHist(info).ObserveTrace(dur, trace)
	}
	e.requests.Add(1)
	cs.requests.Add(1)
	if resp.Err != "" {
		e.errors.Add(1)
		cs.errors.Add(1)
	}
	if dur >= DefaultSlowThreshold {
		e.slow.Add(1)
		cs.slow.Add(1)
	}
	if trace != 0 {
		resp.Trace = trace
		op := string(req.Op)
		e.reg.Spans.Add(obs.Span{
			Trace: trace, ID: span, Parent: parent, Name: e.span, Op: op,
			FileSet: req.FileSet, Server: -1, Start: start, Dur: dur, Err: resp.Err,
		})
		// Over-budget requests go to the flight recorder now that every
		// span of the trace this hop will record is in the ring.
		e.reg.Slow.MaybePromote(e.reg.Spans, trace, op, dur)
	}
	return resp
}

// opHist returns the op's <name>_request_seconds histogram.
func (e *Endpoint) opHist(info OpInfo) *obs.Histogram {
	p := &e.opHists[info.Code]
	h := p.Load()
	if h == nil {
		h = e.reg.Hist.Get(e.name+"_request_seconds", fmt.Sprintf("op=%q", info.Op))
		p.Store(h)
	}
	return h
}

// Local answers the ops every process serves alike, from its own registry:
// ping (the health no-op), trace (the span ring's newest Count spans, or
// the spans of one trace) and trace-pull (the fleet stitcher's per-node
// pull: ring plus flight recorder, which it dedupes, with this process's
// name and clock for the skew estimate).
func (e *Endpoint) Local(req Request) Response {
	var resp Response
	switch req.Op {
	case OpTrace:
		if req.Trace != 0 {
			resp.Spans = e.reg.Spans.ByTrace(req.Trace)
		} else {
			resp.Spans = e.reg.Spans.Snapshot(req.Count)
		}
	case OpTracePull:
		resp.Spans = append(e.reg.Spans.ByTrace(req.Trace), e.reg.Slow.ByTrace(req.Trace)...)
		resp.Node = e.reg.Node()
		resp.Now = time.Now().UnixNano()
	}
	return resp
}

// connStats snapshots the open connections' accounting, sorted by remote
// address, and the aggregate of the closed ones.
func (e *Endpoint) connStats() (open []ConnStat, closed ConnStat, closedConns int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	open = make([]ConnStat, 0, len(e.conns))
	for _, cs := range e.conns {
		open = append(open, ConnStat{
			Remote:    cs.remote,
			Requests:  cs.requests.Load(),
			Errors:    cs.errors.Load(),
			Slow:      cs.slow.Load(),
			BadFrames: cs.badFrames.Load(),
		})
	}
	sort.Slice(open, func(i, j int) bool { return open[i].Remote < open[j].Remote })
	return open, e.closedAgg, e.closedConns
}

// connState is one connection's request accounting (see ConnStat). A
// FrameServer counts bad frames and admissions into it, the endpoint's
// edge the rest.
type connState struct {
	ep        *Endpoint
	remote    string
	requests  atomic.Int64
	errors    atomic.Int64
	slow      atomic.Int64
	badFrames atomic.Int64
	// inflight counts requests admitted but not yet answered on this
	// connection — one connection carries many.
	inflight atomic.Int64
}

// badFrame counts one undecodable frame. A nil connState (a FrameServer
// outside an endpoint) counts nothing; so do admit and done.
func (c *connState) badFrame() {
	if c != nil {
		c.badFrames.Add(1)
		c.ep.badFrames.Add(1)
	}
}

// admit counts a request in flight and observes the connection's depth.
func (c *connState) admit() {
	if c != nil {
		c.ep.depth.Observe(time.Duration(c.inflight.Add(1)))
	}
}

// done counts a request answered.
func (c *connState) done() {
	if c != nil {
		c.inflight.Add(-1)
	}
}
