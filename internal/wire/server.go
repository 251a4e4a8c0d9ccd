package wire

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"anufs/internal/live"
	"anufs/internal/lockmgr"
	"anufs/internal/namespace"
	"anufs/internal/obs"
	"anufs/internal/sharedisk"
)

// Wire server counter names, exported via the obs registry and OpStats.
// The endpoint counts the first four under its name, "wire".
const (
	CtrRequests   = "wire_requests"
	CtrErrors     = "wire_errors"
	CtrSlow       = "wire_slow_requests"
	CtrBadFrames  = "wire_bad_frames"
	CtrBatches    = "wire_batches"
	CtrBatchItems = "wire_batch_items"
)

// Server exposes a live.Cluster over TCP through an Endpoint named "wire",
// whose edge spans are "wire" spans. Each connection's requests are served
// concurrently, so a slow metadata operation does not head-of-line-block
// the connection's other requests (responses are correlated by tag, not
// order). What the server adds to the endpoint is the op switch and the
// per-volume RED accounting.
type Server struct {
	cluster *live.Cluster
	ns      *namespace.Table
	obs     *obs.Registry
	ep      *Endpoint
	// histBatch observes the item count of each OpBatch, a count encoded
	// as nanoseconds: bucket boundaries read directly as counts.
	histBatch *obs.Histogram
	// fleet, when set, fences file-set ops against the cluster map and
	// serves the fleet ops (SetFleet, before Listen: handle reads it
	// without a lock).
	fleet FleetHandler

	mu sync.Mutex
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
		cluster:  c,
		ns:       namespace.New(),
		obs:      c.Obs(),
		volStats: map[string]*volStat{},
	}
	s.ep = NewEndpoint(s.obs, "wire", "wire", MaxFramePayload, s.serve)
	s.histBatch = s.obs.Hist.Get("wire_batch_items", "")
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

// SetFleet puts the server in fleet mode: every gated op (Ops) passes
// h.Gate before dispatch (wrong-owner fencing), and every op of a fleet
// class (Class.Fleet) dispatches to h.Fleet. Call before Listen.
func (s *Server) SetFleet(h FleetHandler) { s.fleet = h }

// Listen starts accepting on addr ("host:port"; ":0" picks a free port)
// and returns the bound address. Serving happens on background goroutines.
func (s *Server) Listen(addr string) (string, error) { return s.ep.Listen(addr) }

// Close stops accepting, closes all connections, and waits for handlers.
func (s *Server) Close() { s.ep.Close() }

// serve is the endpoint's handler: the op switch, then the per-tenant RED
// accounting of a file-set-addressed request — rate and errors by volume,
// latency in the volume's histogram. Quota denials are broken out: they
// are the throttle working, not the tenant failing. A request that joins
// a trace carries it in req.Trace (Endpoint), which handle takes as its
// trace; no arm of an op that joins none uses that argument.
func (s *Server) serve(req Request) Response {
	if req.FileSet == "" {
		return s.handle(req.Trace, req)
	}
	start := time.Now()
	resp := s.handle(req.Trace, req)
	dur := time.Since(start)
	vol := namespace.VolumeOf(req.FileSet)
	s.mu.Lock()
	defer s.mu.Unlock()
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
	return resp
}

func (s *Server) handle(trace uint64, req Request) Response {
	var resp Response
	fail := func(err error) Response { return Fail(resp, err) }
	fleet := s.fleet
	info, ok := Lookup(req.Op)
	if !ok {
		return fail(fmt.Errorf("wire: unknown op %q", req.Op))
	}
	if info.Class.Fleet() {
		if fleet == nil {
			return fail(errors.New("wire: not in fleet mode (start anufsd with -fleet)"))
		}
		return fleet.Fleet(req)
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
	case OpPing, OpTrace, OpTracePull:
		return s.ep.Local(req)
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
		var closed ConnStat
		resp.Conns, closed, resp.ClosedConns = s.ep.connStats()
		if resp.ClosedConns > 0 {
			resp.Closed = &closed
		}
	case OpSync:
		if err := v.CheckpointAll(); err != nil {
			return fail(err)
		}
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
	var resp Response
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
