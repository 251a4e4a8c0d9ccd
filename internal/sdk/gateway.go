package sdk

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"anufs/internal/fleet"
	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/wire"
)

// Gateway counter names.
const (
	CtrGwRequests  = "gw_requests"
	CtrGwErrors    = "gw_errors"
	CtrGwBadFrames = "gw_bad_frames"
)

// authorityTimeout bounds authority-only forwards (rebalances run many
// handoffs).
const authorityTimeout = 2 * time.Minute

// GatewayConfig parameterizes a gateway.
type GatewayConfig struct {
	// Authority is the fleet authority daemon's wire address.
	Authority string
	// Peers are the other gateways of the tier: their cached cluster maps
	// are consulted before the authority, so N gateways converge on a new
	// epoch without stampeding it.
	Peers []string
	// Budget bounds one routed operation (default fleet.DefaultRouteBudget).
	Budget time.Duration
	// PoolSize is pipelined connections per daemon (default
	// DefaultPoolSize).
	PoolSize int
	// Timeout is the per-call deadline toward daemons (0 =
	// wire.DefaultCallTimeout).
	Timeout time.Duration
	// Obs receives gateway counters and gauges; nil disables.
	Obs *obs.Registry
}

// Gateway is a stateless wire endpoint fronting a sharded fleet: every
// file-set-addressed request routes to its owning daemon over pipelined
// connection pools, wrong-owner rejections and live handoffs are absorbed
// by the fleet router, and namespace/lock operations are fanned out or
// session-mapped so plain wire clients see one logical server. Statelessness
// is what makes the tier horizontally scalable — any gateway can serve any
// client, and the only cross-gateway state (the cluster map) is a cache
// that peers share and epochs invalidate. Client connections are served by
// the same wire.FrameServer loop as a daemon's, so the pipelining extends
// end to end.
//
// The exception to statelessness is lock sessions: a session minted here
// maps lazily to per-daemon sessions, which pins a lock holder to the
// gateway it registered with — leases reap the daemons' sessions if the
// gateway dies, exactly as they reap a dead client's.
type Gateway struct {
	cfg      GatewayConfig
	router   *fleet.Router
	auth     *Pool        // authority-only forwards, long deadline
	requests *obs.Counter // CtrGwRequests, bumped per request
	inflight atomic.Int64
	nextSess atomic.Uint64
	// opHists holds each op's gw_request_seconds histogram at the op's Code
	// in wire.Ops, made on the op's first request, so the label is
	// formatted and looked up once per op rather than once per request.
	opHists [256]atomic.Pointer[obs.Histogram]

	mu       sync.Mutex
	sessions map[uint64]*gwSession
	conns    map[net.Conn]struct{}
	closed   bool
}

// gwSession maps one gateway-minted lock session to per-daemon sessions,
// registered lazily against whichever daemons the client's locks land on.
type gwSession struct {
	mu  sync.Mutex
	ids map[int]uint64 // daemon ID → that daemon's session ID
}

// on returns this session's ID on daemon d, registering one on first use.
// The registration runs under the session lock: one client's lock calls
// serialize their first touch of each daemon, which is also what keeps a
// retry from registering twice.
func (s *gwSession) on(d placement.DaemonInfo, c fleet.Caller) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.ids[d.ID]; ok {
		return id, nil
	}
	resp, err := c.Call(wire.Request{Op: wire.OpRegister})
	if err != nil {
		return 0, err
	}
	s.ids[d.ID] = resp.Client
	return resp.Client, nil
}

// snapshot returns the registered (daemon, session) pairs.
func (s *gwSession) snapshot() map[int]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]uint64, len(s.ids))
	for d, id := range s.ids {
		out[d] = id
	}
	return out
}

// NewGateway connects to the fleet and returns a ready gateway (the
// initial cluster map is fetched before it returns).
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.Authority == "" {
		return nil, fmt.Errorf("sdk: gateway needs an authority address")
	}
	opts := Options{PoolSize: cfg.PoolSize, Timeout: cfg.Timeout}.withDefaults()
	g := &Gateway{
		cfg:      cfg,
		requests: cfg.Obs.Counter(CtrGwRequests),
		sessions: map[uint64]*gwSession{},
		conns:    map[net.Conn]struct{}{},
	}
	dial := func(addr string) (fleet.Caller, error) { return NewPool(addr, opts), nil }
	router, err := fleet.NewRouter(fleet.RouterConfig{
		AuthorityAddr: cfg.Authority,
		MapSources:    cfg.Peers,
		Budget:        cfg.Budget,
		Obs:           cfg.Obs,
		DialCaller:    dial,
	})
	if err != nil {
		return nil, err
	}
	g.router = router
	g.auth = NewPool(cfg.Authority, Options{PoolSize: 1, Timeout: authorityTimeout})
	if cfg.Obs != nil {
		cfg.Obs.AddGauges(func() []obs.Gauge {
			return []obs.Gauge{{Name: "gw_inflight_requests", Value: float64(g.inflight.Load())}}
		})
	}
	return g, nil
}

// Router exposes the gateway's fleet router (map cache, counters).
func (g *Gateway) Router() *fleet.Router { return g.router }

// ServeListener accepts and serves connections until the listener closes.
func (g *Gateway) ServeListener(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			conn.Close()
			return
		}
		g.conns[conn] = struct{}{}
		g.mu.Unlock()
		go g.ServeConn(conn)
	}
}

// ServeConn serves one client connection until it closes.
func (g *Gateway) ServeConn(conn net.Conn) {
	defer func() {
		conn.Close()
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
	}()
	fs := &wire.FrameServer{
		Handle:     g.serve,
		OnBadFrame: func() { g.cfg.Obs.Counter(CtrGwBadFrames).Add(1) },
		OnInflight: func(d int64) { g.inflight.Add(d) },
	}
	fs.Serve(conn, wire.MaxFramePayload)
}

// Close tears down client connections and daemon pools. Idempotent.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	conns := g.conns
	g.conns = map[net.Conn]struct{}{}
	g.mu.Unlock()
	for conn := range conns {
		conn.Close()
	}
	g.auth.Close()
	g.router.Close()
}

// session looks a gateway-minted lock session up.
func (g *Gateway) session(id uint64) *gwSession {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sessions[id]
}

// serve routes one request. Responses keep the caller's request ID even
// when the routed call failed; server-reported errors are relayed with
// their Code (and wrong-owner epoch), so a client behind the gateway sees
// the same typed errors it would see against the daemon.
//
// With a registry, the gateway is the fleet's trace edge: a request
// arriving without trace context gets a fresh trace ID minted here, the
// gateway hop is recorded as a "gateway" span, and the span's ID rides
// downstream as the daemons' Parent — so a stitched timeline roots at the
// tier the client actually talked to. The trace ID is echoed in the
// response for clients that want to pull the timeline afterwards.
func (g *Gateway) serve(req wire.Request) wire.Response {
	g.requests.Add(1)
	reg := g.cfg.Obs
	// Observer ops reuse the Trace field to address a target trace; Ping is
	// the health no-op. Neither should mint or join traces.
	observer := req.Op == wire.OpTrace || req.Op == wire.OpTunerLog || req.Op == wire.OpTracePull
	traced := reg != nil && !observer && req.Op != wire.OpPing
	var trace, span, inParent uint64
	var start time.Time
	if traced {
		trace = req.Trace
		if trace == 0 {
			trace = reg.NextTraceID()
		}
		span = reg.NextSpanID()
		inParent = req.Parent
		req.Trace = trace
		req.Parent = span
		start = time.Now()
	}
	resp := g.route(req)
	resp.ID = req.ID
	if resp.Err != "" {
		g.cfg.Obs.Counter(CtrGwErrors).Add(1)
	}
	if traced {
		dur := time.Since(start)
		op := string(req.Op)
		if info, ok := wire.Lookup(req.Op); ok {
			g.opHist(info).ObserveTrace(dur, trace)
		}
		reg.Spans.Add(obs.Span{
			Trace: trace, ID: span, Parent: inParent, Name: "gateway", Op: op,
			FileSet: req.FileSet, Server: -1, Start: start, Dur: dur, Err: resp.Err,
		})
		reg.Slow.MaybePromote(reg.Spans, trace, op, dur)
		resp.Trace = trace
	}
	return resp
}

// opHist returns the op's gw_request_seconds histogram.
func (g *Gateway) opHist(info wire.OpInfo) *obs.Histogram {
	p := &g.opHists[info.Code]
	h := p.Load()
	if h == nil {
		h = g.cfg.Obs.Hist.Get("gw_request_seconds", fmt.Sprintf("op=%q", info.Op))
		p.Store(h)
	}
	return h
}

func (g *Gateway) route(req wire.Request) wire.Response {
	resp := wire.Response{ID: req.ID}
	fail := func(err error) wire.Response { return wire.Fail(resp, err) }
	switch req.Op {
	case wire.OpPing:
		return resp
	case wire.OpTrace:
		// Like a daemon, the gateway answers trace dumps from its own span
		// ring — its edge spans; the fleet stitcher is the cross-node view.
		if g.cfg.Obs != nil {
			if req.Trace != 0 {
				resp.Spans = g.cfg.Obs.Spans.ByTrace(req.Trace)
			} else {
				resp.Spans = g.cfg.Obs.Spans.Snapshot(req.Count)
			}
		}
		return resp
	case wire.OpTracePull:
		// The gateway is a hop in fleet traces, so it answers trace pulls
		// from its own rings instead of forwarding — the stitcher queries
		// each process directly, this one included.
		resp.Now = time.Now().UnixNano()
		if g.cfg.Obs != nil {
			resp.Spans = g.cfg.Obs.Spans.ByTrace(req.Trace)
			resp.Spans = append(resp.Spans, g.cfg.Obs.Slow.ByTrace(req.Trace)...)
			resp.Node = g.cfg.Obs.Node()
		}
		return resp
	case wire.OpMap:
		cm, err := g.router.Refresh()
		if err != nil && cm == nil {
			return fail(err)
		}
		encoded, err := cm.Encode()
		if err != nil {
			return fail(err)
		}
		resp.Map = encoded
		resp.Epoch = cm.Epoch
		return resp
	case wire.OpMapEpoch:
		cm, _ := g.router.Refresh()
		if cm == nil {
			return fail(errNoMap)
		}
		resp.Epoch = cm.Epoch
		return resp
	case wire.OpSync:
		if err := g.router.SyncTraced(req.Trace, req.Parent); err != nil {
			return fail(err)
		}
		return resp
	case wire.OpCreateFileSet:
		// Placement-aware create: unplaced file sets are assigned by the
		// authority first, which plain forwarding cannot do.
		if err := g.router.CreateFileSet(req.FileSet); err != nil {
			return fail(err)
		}
		return resp
	case wire.OpResolve:
		return g.anyDaemon(req)
	case wire.OpPCreate, wire.OpPStat, wire.OpPRemove:
		// Resolve the global path on a daemon, then route the rewritten
		// file-set-addressed op to its owner — the resolve and the data op
		// may land on different daemons.
		out := g.anyDaemon(wire.Request{Op: wire.OpResolve, Path: req.Path})
		if out.Err != "" {
			return out
		}
		fwd := wire.Request{FileSet: out.FileSet, Path: out.Rel, Record: req.Record}
		switch req.Op {
		case wire.OpPCreate:
			fwd.Op = wire.OpCreate
		case wire.OpPStat:
			fwd.Op = wire.OpStat
		case wire.OpPRemove:
			fwd.Op = wire.OpRemove
		}
		return g.forward(fwd)
	case wire.OpRegister:
		id := g.nextSess.Add(1)
		g.mu.Lock()
		g.sessions[id] = &gwSession{ids: map[int]uint64{}}
		g.mu.Unlock()
		resp.Client = id
		return resp
	case wire.OpLock, wire.OpUnlock:
		sess := g.session(req.Client)
		if sess == nil {
			return fail(errNoSession)
		}
		var out wire.Response
		err := g.router.Do(req.FileSet, func(d placement.DaemonInfo, c fleet.Caller) error {
			id, err := sess.on(d, c)
			if err != nil {
				return err
			}
			fwd := req
			fwd.Client = id
			got, err := c.Call(fwd)
			out = got
			return err
		})
		if err != nil && out.Err == "" {
			return fail(err)
		}
		return out
	case wire.OpRenew:
		sess := g.session(req.Client)
		if sess == nil {
			return fail(errNoSession)
		}
		cm := g.router.Map()
		var firstErr error
		for daemonID, id := range sess.snapshot() {
			d, ok := cm.Daemon(daemonID)
			if !ok {
				continue // daemon left the fleet; its leases died with it
			}
			c, err := g.router.Caller(d.Addr)
			if err == nil {
				_, err = c.Call(wire.Request{Op: wire.OpRenew, Client: id})
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("sdk: renew on daemon %d: %w", daemonID, err)
			}
		}
		if firstErr != nil {
			return fail(firstErr)
		}
		return resp
	}
	// Every other op is handled by its routing class alone.
	info, _ := wire.Lookup(req.Op)
	switch info.Class {
	case wire.ClassAuthority:
		// Forward verbatim, then mark the map cache stale up to the answered
		// epoch so every later map read (ours and our peers', via peer
		// refresh) reaches it.
		out, err := g.authorityCall(req)
		if err != nil && out.Err == "" {
			return fail(err)
		}
		if out.Epoch > 0 {
			g.router.Maps().Invalidate(out.Epoch)
		}
		return out
	case wire.ClassBroadcast:
		// State every daemon keeps its own copy of (the mount table): apply
		// it everywhere so every daemon resolves the same namespace. First
		// error wins, all attempted.
		return g.broadcast(req)
	case wire.ClassOwner:
		if req.FileSet != "" {
			return g.forward(req)
		}
	}
	// What is left has no route through a gateway: per-daemon data
	// (ClassLocal ops the gateway does not answer itself), the fleet's own
	// member-to-member and replication traffic, which is never relayed for a
	// client whatever file set it names, and ops the table does not hold.
	return fail(errNotRoutable)
}

// forward routes a file-set-addressed request to its owner, relaying
// the owner's error response as is.
func (g *Gateway) forward(req wire.Request) wire.Response {
	out, err := g.router.Forward(req)
	if err != nil && out.Err == "" {
		return wire.Fail(out, err)
	}
	return out
}

// broadcast sends a request to every daemon in the map; first error wins
// but every daemon is attempted.
func (g *Gateway) broadcast(req wire.Request) wire.Response {
	var firstErr error
	for _, d := range g.router.Map().Daemons {
		c, err := g.router.Caller(d.Addr)
		if err == nil {
			_, err = c.Call(req)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("sdk: daemon %d: %w", d.ID, err)
		}
	}
	if firstErr != nil {
		return wire.Fail(wire.Response{}, firstErr)
	}
	return wire.Response{}
}

// anyDaemon tries the request against each daemon until one answers
// without a transport error (server-reported errors are final: every
// daemon would answer the same).
func (g *Gateway) anyDaemon(req wire.Request) wire.Response {
	var lastErr error
	for _, d := range g.router.Map().Daemons {
		c, err := g.router.Caller(d.Addr)
		if err == nil {
			out, err2 := c.Call(req)
			if err2 == nil || out.Err != "" {
				return out
			}
			err = err2
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errNoMap
	}
	return wire.Fail(wire.Response{}, lastErr)
}

// authorityCall forwards one raw request to the authority over the
// dedicated long-deadline pool, retrying once on a transport failure.
func (g *Gateway) authorityCall(req wire.Request) (wire.Response, error) {
	out, err := g.auth.Call(req)
	if err != nil && out.Err == "" {
		out, err = g.auth.Call(req)
	}
	return out, err
}

type gwError string

func (e gwError) Error() string { return string(e) }

const (
	errNoMap       = gwError("sdk: no cluster map available")
	errNotRoutable = gwError("sdk: operation has no route through a gateway: no file set to route by, or an op only a daemon serves (connect to one directly)")
	errNoSession   = gwError("sdk: unknown lock session (register through this gateway first)")
)
