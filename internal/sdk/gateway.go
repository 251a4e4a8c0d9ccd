package sdk

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anufs/internal/fleet"
	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/wire"
)

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
	// Obs receives gateway counters, gauges and spans; nil keeps them in a
	// registry of the gateway's own that nothing exports.
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
// a wire.Endpoint named "gw", as a daemon's are, so the pipelining extends
// end to end, and the gateway is the fleet's trace edge: its "gateway"
// span roots a stitched timeline at the tier the client talked to.
//
// The exception to statelessness is lock sessions: a session minted here
// maps lazily to per-daemon sessions, which pins a lock holder to the
// gateway it registered with — leases reap the daemons' sessions if the
// gateway dies, exactly as they reap a dead client's.
type Gateway struct {
	cfg      GatewayConfig
	router   *fleet.Router
	ep       *wire.Endpoint
	nextSess atomic.Uint64

	mu       sync.Mutex
	sessions map[uint64]*gwSession
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
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	opts := Options{PoolSize: cfg.PoolSize, Timeout: cfg.Timeout}.withDefaults()
	g := &Gateway{cfg: cfg, sessions: map[uint64]*gwSession{}}
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
	g.ep = wire.NewEndpoint(cfg.Obs, "gw", "gateway", wire.MaxFramePayload, g.route)
	return g, nil
}

// Router exposes the gateway's fleet router (map cache, counters).
func (g *Gateway) Router() *fleet.Router { return g.router }

// Listen starts serving clients on addr ("host:port"; ":0" picks a free
// port) and returns the bound address.
func (g *Gateway) Listen(addr string) (string, error) { return g.ep.Listen(addr) }

// Close tears down the daemon pools, then the client connections, and
// returns once every connection handler has exited: with the pools gone
// first, a handler waiting on a daemon fails at once instead of being
// waited out. Idempotent.
func (g *Gateway) Close() {
	g.router.Close()
	g.ep.Close()
}

// session looks a gateway-minted lock session up.
func (g *Gateway) session(id uint64) *gwSession {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sessions[id]
}

// route serves one request: the endpoint's handler. Server-reported
// errors are relayed with their Code (and wrong-owner epoch), so a client
// behind the gateway sees the same typed errors it would see against the
// daemon; a traced request's context rides downstream in req.Trace and
// req.Parent (wire.Endpoint).
func (g *Gateway) route(req wire.Request) wire.Response {
	var resp wire.Response
	fail := func(err error) wire.Response { return wire.Fail(resp, err) }
	switch req.Op {
	case wire.OpPing, wire.OpTrace, wire.OpTracePull:
		return g.ep.Local(req)
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
		// Forward verbatim to the map-advertised authority; the router
		// raises its map floor to the answered epoch, so every later map
		// read (ours and our peers', via peer refresh) reaches it.
		out, err := g.router.CallAuthority(req)
		if err != nil && out.Err == "" {
			return fail(err)
		}
		return out
	case wire.ClassBroadcast:
		// State every daemon keeps a copy of (the mount table) or its own
		// share of (the dirty records a sync flushes): the op goes to every
		// daemon. First error wins, all attempted.
		if err := g.router.Broadcast(req); err != nil {
			return fail(err)
		}
		return resp
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

type gwError string

func (e gwError) Error() string { return string(e) }

const (
	errNoMap       = gwError("sdk: no cluster map available")
	errNotRoutable = gwError("sdk: operation has no route through a gateway: no file set to route by, or an op only a daemon serves (connect to one directly)")
	errNoSession   = gwError("sdk: unknown lock session (register through this gateway first)")
)
