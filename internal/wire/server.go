package wire

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anufs/internal/live"
	"anufs/internal/lockmgr"
	"anufs/internal/namespace"
	"anufs/internal/obs"
	"anufs/internal/sharedisk"
)

// Wire server counter names, exported via the obs registry and OpStats.
const (
	CtrRequests   = "wire_requests"
	CtrErrors     = "wire_errors"
	CtrSlow       = "wire_slow_requests"
	CtrBadFrames  = "wire_bad_frames"
	CtrBatches    = "wire_batches"
	CtrBatchItems = "wire_batch_items"
)

// DefaultSlowThreshold classifies a request as slow for the
// wire_slow_requests counter; override with SetSlowThreshold.
const DefaultSlowThreshold = 500 * time.Millisecond

// connState is one connection's request accounting (see ConnStat).
type connState struct {
	remote    string
	requests  atomic.Int64
	errors    atomic.Int64
	slow      atomic.Int64
	badFrames atomic.Int64
	// inflight counts requests admitted but not yet answered on this
	// connection — one connection carries many.
	inflight atomic.Int64
}

// Server exposes a live.Cluster over TCP. One goroutine per connection
// reads frames (FrameServer) and hands each request to a handler goroutine
// of that connection's, so a slow metadata operation does not
// head-of-line-block the connection's other requests (responses are
// correlated by tag, not order).
//
// Every request is traced: the server mints a trace ID (unless the client
// supplied one), times the handler into a per-op latency histogram, emits a
// "wire" span, and echoes the ID in the response so the client can fetch
// the request's full span timeline with OpTrace.
type Server struct {
	cluster *live.Cluster
	ns      *namespace.Table
	obs     *obs.Registry

	// ctrRequests and ctrErrors are bumped per request, so the handles are
	// held; the rarer wire_* counters are looked up where they count.
	ctrRequests *obs.Counter
	ctrErrors   *obs.Counter
	slow        time.Duration
	// histDepth observes the connection's pipeline depth at each
	// admission and histBatch the item count of each OpBatch. Both encode
	// a unitless count as nanoseconds (obs histograms observe durations):
	// bucket boundaries read directly as counts.
	histDepth *obs.Histogram
	histBatch *obs.Histogram
	// opHists holds each op's wire_request_seconds histogram at the op's
	// Code in Ops, made on the op's first request: a label is formatted and
	// looked up once per op, not once per request.
	opHists [256]atomic.Pointer[obs.Histogram]

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]*connState
	closed   bool
	handlers sync.WaitGroup
	// closedAgg folds the accounting of disconnected connections (whose
	// conns entries are reaped on close) into one retained aggregate, so
	// per-connection totals survive connection churn with O(1) state.
	closedAgg   ConnStat
	closedConns int64
	// fleet, when set, fences file-set ops against the cluster map and
	// serves the fleet ops (SetFleet).
	fleet FleetHandler
	// volStats is the per-tenant RED accounting for file-set-addressed
	// requests, keyed by the volume of the request's file set (the prefix
	// of its qualified ID). Exposed as labeled gauges on /metrics and as a
	// latency histogram labeled volume=... — one scrape answers "which
	// tenant is hot and which tenant is being throttled".
	volStats map[string]*volStat
}

// volStat is one volume's request accounting; hist is its
// volume_request_seconds histogram, found with the entry.
type volStat struct {
	requests     int64
	errors       int64
	quotaDenials int64
	hist         *obs.Histogram
}

// NewServer wraps a cluster. The caller retains ownership of the cluster
// (Close does not stop it). The server records into the cluster's obs
// registry, so one /metrics scrape covers the wire layer, the owner
// queues, and (when the daemon shares the registry) the journal.
func NewServer(c *live.Cluster) *Server {
	s := &Server{
		cluster:     c,
		ns:          namespace.New(),
		obs:         c.Obs(),
		ctrRequests: c.Obs().Counter(CtrRequests),
		ctrErrors:   c.Obs().Counter(CtrErrors),
		slow:        DefaultSlowThreshold,
		conns:       map[net.Conn]*connState{},
		volStats:    map[string]*volStat{},
	}
	s.histDepth = s.obs.Hist.Get("wire_pipeline_depth", "")
	s.histBatch = s.obs.Hist.Get("wire_batch_items", "")
	s.obs.AddGauges(func() []obs.Gauge {
		s.mu.Lock()
		n, nc := len(s.conns), s.closedConns
		var inflight int64
		for _, cs := range s.conns {
			inflight += cs.inflight.Load()
		}
		s.mu.Unlock()
		return []obs.Gauge{
			{Name: "wire_open_connections", Value: float64(n)},
			{Name: "wire_closed_connections", Value: float64(nc)},
			{Name: "wire_inflight_requests", Value: float64(inflight)},
		}
	})
	s.obs.AddGauges(func() []obs.Gauge {
		s.mu.Lock()
		defer s.mu.Unlock()
		vols := make([]string, 0, len(s.volStats))
		for v := range s.volStats {
			vols = append(vols, v)
		}
		sort.Strings(vols)
		out := make([]obs.Gauge, 0, 3*len(vols))
		for _, v := range vols {
			vs := s.volStats[v]
			label := fmt.Sprintf("volume=%q", v)
			out = append(out,
				obs.Gauge{Name: "volume_requests", Labels: label, Value: float64(vs.requests)},
				obs.Gauge{Name: "volume_errors", Labels: label, Value: float64(vs.errors)},
				obs.Gauge{Name: "volume_quota_denials", Labels: label, Value: float64(vs.quotaDenials)},
			)
		}
		return out
	})
	return s
}

// SetSlowThreshold overrides the latency above which a request counts as
// slow. Call before Listen.
func (s *Server) SetSlowThreshold(d time.Duration) {
	s.mu.Lock()
	s.slow = d
	s.mu.Unlock()
}

// SetFleet puts the server in fleet mode: every gated op (Ops) passes
// h.Gate before dispatch (wrong-owner fencing), and every op of a fleet
// class (Class.Fleet) dispatches to h.Fleet. Call before Listen.
func (s *Server) SetFleet(h FleetHandler) {
	s.mu.Lock()
	s.fleet = h
	s.mu.Unlock()
}

// Listen starts accepting on addr ("host:port"; ":0" picks a free port)
// and returns the bound address. Serving happens on background goroutines.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("wire: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.handlers.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.handlers.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		cs := &connState{remote: conn.RemoteAddr().String()}
		s.conns[conn] = cs
		s.mu.Unlock()
		s.handlers.Add(1)
		go s.serveConn(conn, cs)
	}
}

// Close stops accepting, closes all connections, and waits for handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.handlers.Wait()
}

func (s *Server) serveConn(conn net.Conn, cs *connState) {
	defer s.handlers.Done()
	defer func() {
		conn.Close()
		// Reap the per-connection entry but keep its totals: fold them into
		// the closed-connection aggregate under the same lock, so stats
		// never double-count a connection mid-teardown and the map stays
		// bounded by the number of LIVE connections.
		s.mu.Lock()
		delete(s.conns, conn)
		s.closedConns++
		s.closedAgg.Requests += cs.requests.Load()
		s.closedAgg.Errors += cs.errors.Load()
		s.closedAgg.Slow += cs.slow.Load()
		s.closedAgg.BadFrames += cs.badFrames.Load()
		s.mu.Unlock()
	}()
	fs := &FrameServer{
		Handle: func(req Request) Response { return s.serve(cs, req) },
		OnBadFrame: func() {
			s.obs.Counter(CtrBadFrames).Add(1)
			cs.badFrames.Add(1)
		},
		OnInflight: func(d int64) {
			n := cs.inflight.Add(d)
			if d > 0 {
				s.histDepth.Observe(time.Duration(n))
			}
		},
	}
	fs.Serve(conn, MaxFramePayload)
}

// serve instruments one request around handle: per-op latency histogram,
// request/error/slow counters (global and per connection), and — except for
// the observability ops themselves — a trace ID and a "wire" span.
func (s *Server) serve(cs *connState, req Request) Response {
	start := time.Now()
	// OpTrace/OpTunerLog/OpTracePull inspect traces rather than participate
	// in them (they reuse the Trace field to address the target trace).
	observer := req.Op == OpTrace || req.Op == OpTunerLog || req.Op == OpTracePull
	var trace uint64
	if !observer {
		trace = req.Trace
		if trace == 0 {
			trace = s.obs.NextTraceID()
		}
	}
	resp := s.handle(trace, req)
	dur := time.Since(start)
	op := string(req.Op)
	if info, ok := Lookup(req.Op); ok {
		s.opHist(info).ObserveTrace(dur, trace)
	}
	s.ctrRequests.Add(1)
	cs.requests.Add(1)
	if resp.Err != "" {
		s.ctrErrors.Add(1)
		cs.errors.Add(1)
	}
	if req.FileSet != "" {
		// Per-tenant RED: rate and errors by volume (latency rides the
		// histogram below). Quota denials are broken out — they are the
		// throttle working, not the tenant failing.
		vol := namespace.VolumeOf(req.FileSet)
		s.mu.Lock()
		vs := s.volStats[vol]
		if vs == nil {
			vs = &volStat{hist: s.obs.Hist.Get("volume_request_seconds", fmt.Sprintf("volume=%q", vol))}
			s.volStats[vol] = vs
		}
		vs.hist.Observe(dur)
		vs.requests++
		if resp.Err != "" {
			vs.errors++
			if resp.Code == CodeQuotaExceeded {
				vs.quotaDenials++
			}
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	slow := s.slow
	s.mu.Unlock()
	if dur >= slow {
		s.obs.Counter(CtrSlow).Add(1)
		cs.slow.Add(1)
	}
	if !observer {
		resp.Trace = trace
		// The wire span carries the propagated context: its Parent is the
		// upstream hop's span ID (a gateway or sdk client), and its own ID
		// lets further hops parent under it.
		s.obs.Spans.Add(obs.Span{
			Trace: trace, Name: "wire", Op: op, FileSet: req.FileSet,
			Server: -1, Start: start, Dur: dur, Err: resp.Err,
			ID: s.obs.NextSpanID(), Parent: req.Parent,
		})
		// Over-budget requests go to the flight recorder now that every
		// span of the trace this node will record is in the ring.
		s.obs.Slow.MaybePromote(s.obs.Spans, trace, op, dur)
	}
	return resp
}

// opHist returns the op's wire_request_seconds histogram.
func (s *Server) opHist(info OpInfo) *obs.Histogram {
	p := &s.opHists[info.Code]
	h := p.Load()
	if h == nil {
		h = s.obs.Hist.Get("wire_request_seconds", fmt.Sprintf("op=%q", info.Op))
		p.Store(h)
	}
	return h
}

// connStats snapshots per-connection accounting, sorted by remote address.
func (s *Server) connStats() []ConnStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ConnStat, 0, len(s.conns))
	for _, cs := range s.conns {
		out = append(out, ConnStat{
			Remote:    cs.remote,
			Requests:  cs.requests.Load(),
			Errors:    cs.errors.Load(),
			Slow:      cs.slow.Load(),
			BadFrames: cs.badFrames.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Remote < out[j].Remote })
	return out
}

func (s *Server) handle(trace uint64, req Request) Response {
	resp := Response{ID: req.ID}
	fail := func(err error) Response { return Fail(resp, err) }
	s.mu.Lock()
	fleet := s.fleet
	s.mu.Unlock()
	info, ok := Lookup(req.Op)
	if !ok {
		return fail(fmt.Errorf("wire: unknown op %q", req.Op))
	}
	if info.Class.Fleet() {
		if fleet == nil {
			return fail(errors.New("wire: not in fleet mode (start anufsd with -fleet)"))
		}
		r := fleet.Fleet(req)
		r.ID = req.ID
		return r
	}
	if fleet != nil && info.Gated {
		release, err := fleet.Gate(req.Op, req.FileSet)
		if err != nil {
			return fail(err)
		}
		defer release()
	}
	// Metadata operations go through the traced view, so queue-wait/apply
	// (and, for sync, journal) spans land under this request's trace.
	v := s.cluster.WithTrace(trace)
	switch req.Op {
	case OpPing:
		// Liveness no-op: connection pools health-check with it.
	case OpBatch:
		// Batches gate per touched file set inside handleBatch (the
		// generic gate above is single-file-set).
		return s.handleBatch(trace, fleet, req)
	case OpCreateFileSet:
		if err := s.cluster.CreateFileSet(req.FileSet); err != nil {
			return fail(err)
		}
	case OpCreate:
		rec := sharedisk.Record{}
		if req.Record != nil {
			rec = *req.Record
		}
		if err := v.Create(req.FileSet, req.Path, rec); err != nil {
			return fail(err)
		}
	case OpStat:
		rec, err := v.Stat(req.FileSet, req.Path)
		if err != nil {
			return fail(err)
		}
		resp.Record = &rec
	case OpUpdate:
		if req.Record == nil {
			return fail(errors.New("wire: update needs a record"))
		}
		if err := v.Update(req.FileSet, req.Path, *req.Record); err != nil {
			return fail(err)
		}
	case OpRemove:
		if err := v.Remove(req.FileSet, req.Path); err != nil {
			return fail(err)
		}
	case OpList:
		paths, err := v.List(req.FileSet, req.Path)
		if err != nil {
			return fail(err)
		}
		resp.Paths = paths
	case OpOwner:
		resp.Owner = s.cluster.Owner(req.FileSet)
	case OpRegister:
		resp.Client = uint64(s.cluster.RegisterClient())
	case OpLock:
		mode := lockmgr.Shared
		if req.Exclusive {
			mode = lockmgr.Exclusive
		}
		if err := s.cluster.Lock(lockmgr.SessionID(req.Client), req.FileSet, req.Path, mode); err != nil {
			return fail(err)
		}
	case OpUnlock:
		if err := s.cluster.Unlock(lockmgr.SessionID(req.Client), req.FileSet, req.Path); err != nil {
			return fail(err)
		}
	case OpRenew:
		s.cluster.RenewClient(lockmgr.SessionID(req.Client))
	case OpStats:
		for _, st := range s.cluster.Stats() {
			resp.Stats = append(resp.Stats, ServerStat{
				ID:        st.ID,
				Speed:     st.Speed,
				ShareFrac: st.ShareFrac,
				Served:    st.Served,
				Owned:     len(st.Owned),
			})
		}
		// The journal shares the daemon's registry; without one there is
		// no journal_* counter and Journal stays nil.
		resp.Wire = map[string]int64{}
		for name, v := range s.obs.Counters() {
			switch {
			case strings.HasPrefix(name, "wire_"):
				resp.Wire[name] = v
			case strings.HasPrefix(name, "journal_"):
				if resp.Journal == nil {
					resp.Journal = map[string]int64{}
				}
				resp.Journal[name] = v
			}
		}
		resp.Conns = s.connStats()
		s.mu.Lock()
		if s.closedConns > 0 {
			agg := s.closedAgg
			resp.Closed, resp.ClosedConns = &agg, s.closedConns
		}
		s.mu.Unlock()
	case OpSync:
		if err := v.CheckpointAll(); err != nil {
			return fail(err)
		}
	case OpTrace:
		if req.Trace != 0 {
			resp.Spans = s.obs.Spans.ByTrace(req.Trace)
		} else {
			resp.Spans = s.obs.Spans.Snapshot(req.Count)
		}
	case OpTracePull:
		// The fleet stitcher's per-node pull: live ring plus flight
		// recorder (it dedupes), with identity and clock for skew.
		resp.Spans = s.obs.Spans.ByTrace(req.Trace)
		resp.Spans = append(resp.Spans, s.obs.Slow.ByTrace(req.Trace)...)
		resp.Node = s.obs.Node()
		resp.Now = time.Now().UnixNano()
	case OpTunerLog:
		resp.Tuner = s.obs.Tuner.Snapshot(req.Count)
	case OpMount:
		if err := s.ns.Mount(req.Prefix, req.FileSet); err != nil {
			return fail(err)
		}
	case OpUnmount:
		if err := s.ns.Unmount(req.Prefix); err != nil {
			return fail(err)
		}
	case OpResolve:
		fs, rel, err := s.ns.Resolve(req.Path)
		if err != nil {
			return fail(err)
		}
		resp.FileSet, resp.Rel = fs, rel
	case OpPCreate:
		fs, rel, err := s.ns.Resolve(req.Path)
		if err != nil {
			return fail(err)
		}
		rec := sharedisk.Record{}
		if req.Record != nil {
			rec = *req.Record
		}
		if err := v.Create(fs, rel, rec); err != nil {
			return fail(err)
		}
	case OpPStat:
		fs, rel, err := s.ns.Resolve(req.Path)
		if err != nil {
			return fail(err)
		}
		rec, err := v.Stat(fs, rel)
		if err != nil {
			return fail(err)
		}
		resp.Record = &rec
	case OpPRemove:
		fs, rel, err := s.ns.Resolve(req.Path)
		if err != nil {
			return fail(err)
		}
		if err := v.Remove(fs, rel); err != nil {
			return fail(err)
		}
	case OpMapping:
		data, err := s.cluster.MappingConfig()
		if err != nil {
			return fail(err)
		}
		resp.Mapping = data
	case OpShip, OpShipStatus:
		// Replication ops land on standby daemons (internal/replica); a
		// serving cluster refuses them so a misconfigured -replicate-to
		// pointing at a live primary fails loudly instead of wedging.
		return fail(errors.New("wire: not a standby (replication ops need a -standby daemon)"))
	default:
		// A row in Ops with no handler here: TestServerHandlesEveryOp fails.
		return fail(fmt.Errorf("wire: op %q has no handler", req.Op))
	}
	return resp
}

// handleBatch serves OpBatch: validate, gate every touched file set (in
// fleet mode), then apply each file set's items as ONE owner-queue task —
// the server-side half of client batching. Admission is all-or-nothing: a
// single wrong-owner file set rejects the whole batch before anything is
// applied, so the client retries the batch intact after a map refetch and
// no partially-admitted batch can be acknowledged.
func (s *Server) handleBatch(trace uint64, fleet FleetHandler, req Request) Response {
	resp := Response{ID: req.ID}
	fail := func(err error) Response { return Fail(resp, err) }
	n := len(req.Batch)
	if n == 0 {
		return fail(errors.New("wire: empty batch"))
	}
	// Group items by file set, preserving first-appearance order so
	// gating is deterministic.
	var order []string
	groups := map[string][]int{}
	for i := range req.Batch {
		it := &req.Batch[i]
		if !BatchableOp(it.Op) {
			return fail(fmt.Errorf("wire: op %q is not batchable", it.Op))
		}
		fs := it.FileSet
		if fs == "" {
			fs = req.FileSet
		}
		if fs == "" {
			return fail(errors.New("wire: batch item names no file set"))
		}
		if _, seen := groups[fs]; !seen {
			order = append(order, fs)
		}
		groups[fs] = append(groups[fs], i)
	}
	if fleet != nil {
		var releases []func()
		defer func() {
			for _, r := range releases {
				r()
			}
		}()
		for _, fs := range order {
			release, err := fleet.Gate(OpBatch, fs)
			if err != nil {
				return fail(err)
			}
			releases = append(releases, release)
		}
	}
	v := s.cluster.WithTrace(trace)
	results := make([]BatchResult, n)
	for _, fs := range order {
		idx := groups[fs]
		ops := make([]live.BatchOp, len(idx))
		for j, i := range idx {
			it := req.Batch[i]
			ops[j] = live.BatchOp{Kind: string(it.Op), Path: it.Path}
			if it.Record != nil {
				ops[j].Rec = *it.Record
			}
		}
		outs, err := v.Batch(fs, ops)
		if err != nil {
			// Routing-level failure (file set mid-move past the retry
			// budget): every item of this file set fails; others proceed.
			for _, i := range idx {
				results[i] = BatchResult{Err: err.Error()}
			}
			continue
		}
		for j, i := range idx {
			if outs[j].Err != nil {
				results[i].Err = outs[j].Err.Error()
			}
			results[i].Record = outs[j].Rec
		}
	}
	if req.Durable {
		// One checkpoint per touched file set, all started before any is
		// waited for: they and those of concurrent batches fold into the
		// journal's group commit, so N batches cost ~1 fsync.
		if err := v.CheckpointEach(order); err != nil {
			return fail(fmt.Errorf("wire: batch %w", err))
		}
	}
	s.obs.Counter(CtrBatches).Add(1)
	s.obs.Counter(CtrBatchItems).Add(int64(n))
	s.histBatch.Observe(time.Duration(n))
	s.linkFoldedItems(trace, req, results)
	resp.Results = results
	return resp
}

// linkFoldedItems preserves per-op traces across client-side batch
// folding: each folded item that carried its own trace ID gets a
// "batch-fold" span on ITS trace linking to the enclosing batch's trace,
// and the batch's trace gets one span linking back to every folded item.
// Either trace ID then leads the fleet stitcher to the other.
func (s *Server) linkFoldedItems(trace uint64, req Request, results []BatchResult) {
	var itemTraces []uint64
	now := time.Now()
	for i := range req.Batch {
		it := &req.Batch[i]
		if it.Trace == 0 || it.Trace == trace {
			continue
		}
		fs := it.FileSet
		if fs == "" {
			fs = req.FileSet
		}
		errStr := ""
		if i < len(results) {
			errStr = results[i].Err
		}
		s.obs.Spans.Add(obs.Span{
			Trace: it.Trace, Name: "batch-fold", Op: string(it.Op), FileSet: fs,
			Server: -1, Start: now, Err: errStr, Links: []uint64{trace},
		})
		itemTraces = append(itemTraces, it.Trace)
	}
	if len(itemTraces) > 0 {
		s.obs.Spans.Add(obs.Span{
			Trace: trace, Name: "batch-fold", Op: string(OpBatch), FileSet: req.FileSet,
			Server: -1, Start: now, Links: itemTraces,
		})
	}
}
