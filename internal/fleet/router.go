package fleet

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// DefaultRouteBudget bounds how long a routed operation keeps retrying
// through map refetches, adoption waits, and reconnects.
const DefaultRouteBudget = 10 * time.Second

// RouterConfig parameterizes a routing client.
type RouterConfig struct {
	// AuthorityAddr is where maps are fetched from (the last-resort map
	// source, and the target of assign/rebalance forwards).
	AuthorityAddr string
	// MapSources are additional map sources tried before the authority —
	// peer gateways sharing their cached maps, so N gateways converge on a
	// new epoch without all of them hitting the authority.
	MapSources []string
	// Budget bounds one routed operation end to end (default
	// DefaultRouteBudget).
	Budget time.Duration
	// Obs receives per-daemon route counters; nil disables.
	Obs *obs.Registry
	// DialCaller overrides outbound connections — the sdk plugs connection
	// pools in here; nil uses one wire.Dial connection per daemon.
	DialCaller func(addr string) (Caller, error)
}

// Router is the fleet's client side: it caches the cluster map, routes
// each operation to the owning daemon, and converges on wrong-owner
// rejections by refetching the map. The retry discipline is deliberate: a
// wrong-owner error names the epoch the daemon rejected under, and the
// router retries the operation at most once per refetch that reaches that
// epoch — no retry storm against a daemon that keeps saying no.
//
// The router is its client's only connection cache: map fetches,
// authority calls and routed operations to one address share one Caller.
// The map cache is epoch-floored: a wrong-owner rejection or an authority
// answer raises the floor, and the next read refetches until the map
// reaches it. Sources are tried in order — MapSources first, the
// authority last — and a refresh stops at the first source whose map
// satisfies the floor, which is what lets a tier of gateways absorb map
// churn without stampeding the authority.
type Router struct {
	cfg     RouterConfig
	sources []string // MapSources, then AuthorityAddr

	mu      sync.Mutex
	clients map[string]Caller
	cur     *placement.ClusterMap
	floor   uint64
	closed  bool
	// routed holds each daemon's fleet_routed_daemon_<id> handle, so the
	// per-op count formats no name.
	routed map[int]*obs.Counter
}

// errRouterClosed fails every connection request after Close. It is not
// transient: a closed router has nothing to retry on.
var errRouterClosed = errors.New("fleet: router closed")

// NewRouter fetches the initial map from the map sources and returns a
// ready router.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.AuthorityAddr == "" {
		return nil, fmt.Errorf("fleet: router needs an authority address")
	}
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultRouteBudget
	}
	if cfg.DialCaller == nil {
		cfg.DialCaller = func(addr string) (Caller, error) {
			c, err := wire.Dial(addr)
			if err != nil {
				return nil, err
			}
			return c, nil
		}
	}
	r := &Router{
		cfg:     cfg,
		sources: append(append([]string{}, cfg.MapSources...), cfg.AuthorityAddr),
		clients: map[string]Caller{},
		routed:  map[int]*obs.Counter{},
	}
	if _, err := r.Refresh(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// Close tears down the cached connections; afterwards Caller dials
// nothing and errors. The client map is swapped out under the lock and
// the connections closed outside it, so a slow teardown cannot stall
// routers mid-refresh.
func (r *Router) Close() {
	r.mu.Lock()
	r.closed = true
	clients := r.clients
	r.clients = map[string]Caller{}
	r.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
}

// Map returns the router's cached cluster map.
func (r *Router) Map() *placement.ClusterMap {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// current returns the cached map when it satisfies the floor, refreshing
// otherwise (the stale map comes back with the error when no source
// answers — routing uses its best knowledge).
func (r *Router) current() (*placement.ClusterMap, error) {
	r.mu.Lock()
	cur, floor := r.cur, r.floor
	r.mu.Unlock()
	if cur != nil && cur.Epoch >= floor {
		return cur, nil
	}
	return r.refresh()
}

// raiseFloor marks the cached map stale until a refresh reaches epoch.
func (r *Router) raiseFloor(epoch uint64) {
	r.mu.Lock()
	r.floor = max(r.floor, epoch)
	r.mu.Unlock()
}

// Refresh refetches the map from the sources, keeping the cached one if
// every fetch is older (maps only move forward). The error is non-nil only
// when no source answered; the cached (possibly stale) map is returned
// with it.
func (r *Router) Refresh() (*placement.ClusterMap, error) {
	cm, err := r.refresh()
	if err == nil {
		r.cfg.Obs.Counter("fleet_router_refreshes").Add(1)
	}
	return cm, err
}

// refresh is Refresh uncounted: it asks the sources in order and stops at
// the first map that satisfies the floor.
func (r *Router) refresh() (*placement.ClusterMap, error) {
	r.mu.Lock()
	floor := r.floor
	r.mu.Unlock()
	var firstErr error
	answered := false
	for i, addr := range r.sources {
		cm, err := r.fetchMap(addr)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("fleet: map source %s: %w", addr, err)
			}
			continue
		}
		answered = true
		r.cfg.Obs.Counter(CtrMapFetches).Add(1)
		r.mu.Lock()
		if r.cur == nil || cm.Epoch > r.cur.Epoch {
			r.cur = cm
		}
		r.mu.Unlock()
		if cm.Epoch >= floor {
			if i < len(r.sources)-1 {
				r.cfg.Obs.Counter(CtrMapPeerHits).Add(1)
			}
			break
		}
	}
	if answered {
		return r.Map(), nil
	}
	return r.Map(), firstErr
}

// fetchMap asks one source for its map over the shared connection; a
// failed call drops the connection, as a failed routed call does.
func (r *Router) fetchMap(addr string) (*placement.ClusterMap, error) {
	c, err := r.Caller(addr)
	if err != nil {
		return nil, err
	}
	resp, err := c.Call(wire.Request{Op: wire.OpMap})
	if err != nil {
		r.invalidate(addr)
		return nil, err
	}
	return placement.DecodeClusterMap(resp.Map)
}

// Caller returns the cached connection to addr, dialing on first use (the
// dial runs outside the lock; a lost race closes the extra connection) —
// exported so gateways can reach any daemon through the router's
// connection cache.
func (r *Router) Caller(addr string) (Caller, error) {
	r.mu.Lock()
	c, ok := r.clients[addr]
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return nil, errRouterClosed
	}
	if ok {
		return c, nil
	}
	c, err := r.cfg.DialCaller(addr)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	prev, ok := r.clients[addr]
	closed = r.closed
	if !ok && !closed {
		r.clients[addr] = c
	}
	r.mu.Unlock()
	switch {
	case closed:
		go c.Close()
		return nil, errRouterClosed
	case ok:
		// Lost the dial race; keep the first connection.
		go c.Close()
		return prev, nil
	}
	return c, nil
}

// invalidate drops a cached connection (it errored; the next use redials).
func (r *Router) invalidate(addr string) {
	r.mu.Lock()
	c, ok := r.clients[addr]
	delete(r.clients, addr)
	r.mu.Unlock()
	if ok {
		c.Close()
	}
}

// Do routes one operation against the file set's owning daemon, converging
// through wrong-owner refetches, adoption waits, and reconnects within the
// route budget. fn runs against the owner's transport and is retried at
// most once per state change (new map epoch, reconnect, or backoff step) —
// it must be idempotent or check-before-write, like every wire op here.
func (r *Router) Do(fileSet string, fn func(d placement.DaemonInfo, c Caller) error) error {
	return r.do(0, fileSet, fn)
}

// do is Do with trace context: when the routed operation belongs to a
// trace (and the router has a registry), every retry event — wrong-owner
// refetch, adoption backoff, reconnect — lands in the trace as a
// "route-retry" span, so a stitched fleet timeline shows WHY a request
// crossed daemons, not just that it did.
func (r *Router) do(trace uint64, fileSet string, fn func(d placement.DaemonInfo, c Caller) error) error {
	deadline := time.Now().Add(r.cfg.Budget)
	backoff := wire.NewBackoff(5*time.Millisecond, 250*time.Millisecond)
	retrySpan := func(reason string, daemon int, start time.Time, err error) {
		if trace == 0 || r.cfg.Obs == nil {
			return
		}
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		r.cfg.Obs.Spans.Add(obs.Span{
			Trace: trace, Name: "route-retry", Op: reason, FileSet: fileSet,
			Server: daemon, Start: start, Dur: time.Since(start), Err: errStr,
		})
	}
	var lastErr error
	refetched := false
	for {
		cm, _ := r.current()
		if cm == nil {
			return fmt.Errorf("fleet: no cluster map")
		}
		d, placed := cm.Owner(fileSet)
		if !placed {
			// The cached map may simply predate the file set's creation:
			// ask once before answering from it.
			if !refetched {
				refetched = true
				_, _ = r.Refresh()
				continue
			}
			return fmt.Errorf("fleet: file set %q is not in the cluster map (epoch %d)", fileSet, cm.Epoch)
		}
		attempt := time.Now()
		c, err := r.Caller(d.Addr)
		if err == nil {
			err = fn(d, c)
		}
		if err == nil {
			r.countRouted(d.ID)
			return nil
		}
		lastErr = err
		switch {
		case isWrongOwnerErr(err):
			epoch, _ := wire.IsWrongOwner(err)
			r.cfg.Obs.Counter("fleet_router_wrong_owner").Add(1)
			// Mark the cache stale up to the rejecting daemon's epoch, then
			// refetch until the map reaches it; only then is a retry allowed
			// — exactly one per refetch that advances far enough.
			r.raiseFloor(epoch)
			if !r.awaitEpoch(epoch, deadline, backoff) {
				retrySpan("wrong-owner", d.ID, attempt, err)
				return fmt.Errorf("fleet: map never reached epoch %d within the route budget: %w", epoch, lastErr)
			}
			retrySpan("wrong-owner", d.ID, attempt, err)
		case wire.IsArriving(err):
			r.cfg.Obs.Counter("fleet_router_arriving_waits").Add(1)
			ok := sleepUntil(backoff.Next(), deadline)
			retrySpan("arriving", d.ID, attempt, err)
			if !ok {
				return lastErr
			}
		case wire.TransientError(err):
			r.cfg.Obs.Counter("fleet_router_reconnects").Add(1)
			r.invalidate(d.Addr)
			ok := sleepUntil(backoff.Next(), deadline)
			retrySpan("reconnect", d.ID, attempt, err)
			if !ok {
				return lastErr
			}
			// The daemon may have moved on while we were disconnected.
			_, _ = r.Refresh()
		case wire.IsUnplaced(err) && cm.Assign[fileSet] == d.ID:
			// The daemon has not seen the map that assigns it this file set
			// yet (our map is newer than its). Transient: it converges by
			// authority push or poll.
			ok := sleepUntil(backoff.Next(), deadline)
			retrySpan("await-assign", d.ID, attempt, err)
			if !ok {
				return lastErr
			}
		default:
			return err // application error: the caller's problem
		}
	}
}

// countRouted counts one operation served by daemon id.
func (r *Router) countRouted(id int) {
	r.mu.Lock()
	c := r.routed[id]
	if c == nil {
		c = r.cfg.Obs.Counter("fleet_routed_daemon_" + strconv.Itoa(id))
		r.routed[id] = c
	}
	r.mu.Unlock()
	c.Add(1)
}

func isWrongOwnerErr(err error) bool {
	_, ok := wire.IsWrongOwner(err)
	return ok
}

// awaitEpoch refetches the map until its epoch reaches target (true) or
// the deadline passes (false).
func (r *Router) awaitEpoch(target uint64, deadline time.Time, backoff *wire.Backoff) bool {
	for {
		cm, _ := r.Refresh()
		if cm != nil && cm.Epoch >= target {
			return true
		}
		if !sleepUntil(backoff.Next(), deadline) {
			return false
		}
	}
}

// sleepUntil sleeps d (clipped to the deadline) and reports whether the
// deadline still lies ahead.
func sleepUntil(d time.Duration, deadline time.Time) bool {
	remain := time.Until(deadline)
	if remain <= 0 {
		return false
	}
	if d > remain {
		d = remain
	}
	time.Sleep(d)
	return true
}

// --- typed convenience methods -------------------------------------------

// The typed methods speak raw wire requests through the Caller interface,
// so they work identically over one wire.Client and the sdk's pools.

// CallAuthority sends one request to the fleet authority, preferring the
// daemon the current map advertises (which survives a standby promotion —
// the promoted authority publishes itself in the map) and falling back to
// the configured address when the advertised one fails or is absent. The
// answer raises the map floor to the epoch it carries, so routing never
// again uses a map older than the change the authority just made.
func (r *Router) CallAuthority(req wire.Request) (wire.Response, error) {
	var addrs []string
	if d, ok := r.Map().AuthorityDaemon(); ok {
		addrs = append(addrs, d.Addr)
	}
	if len(addrs) == 0 || addrs[0] != r.cfg.AuthorityAddr {
		addrs = append(addrs, r.cfg.AuthorityAddr)
	}
	var lastErr error
	for _, addr := range addrs {
		c, err := r.Caller(addr)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := c.Call(req)
		if wire.TransientError(err) {
			lastErr = err
			r.invalidate(addr)
			continue
		}
		r.raiseFloor(resp.Epoch)
		return resp, err
	}
	return wire.Response{}, lastErr
}

// CreateFileSet creates a file set fleet-wide: unplaced file sets are first
// assigned by the authority (ANU placement), then created on their owner.
func (r *Router) CreateFileSet(fileSet string) error {
	if _, placed := r.Map().Owner(fileSet); !placed {
		if _, err := r.CallAuthority(wire.Request{Op: wire.OpAssign, FileSet: fileSet, Daemon: -1}); err != nil {
			return fmt.Errorf("fleet: place %q: %w", fileSet, err)
		}
		// The answer raised the floor to the assigning epoch: fetch the map
		// that shows the new owner before routing.
		if _, err := r.Refresh(); err != nil {
			return err
		}
	}
	return r.Do(fileSet, func(_ placement.DaemonInfo, c Caller) error {
		_, err := c.Call(wire.Request{Op: wire.OpCreateFileSet, FileSet: fileSet})
		return err
	})
}

// Create adds a metadata record.
func (r *Router) Create(fileSet, path string, rec sharedisk.Record) error {
	return r.Do(fileSet, func(_ placement.DaemonInfo, c Caller) error {
		_, err := c.Call(wire.Request{Op: wire.OpCreate, FileSet: fileSet, Path: path, Record: &rec})
		return err
	})
}

// Stat reads a metadata record.
func (r *Router) Stat(fileSet, path string) (sharedisk.Record, error) {
	var rec sharedisk.Record
	err := r.Do(fileSet, func(_ placement.DaemonInfo, c Caller) error {
		resp, err := c.Call(wire.Request{Op: wire.OpStat, FileSet: fileSet, Path: path})
		if err != nil {
			return err
		}
		if resp.Record == nil {
			return errors.New("wire: stat returned no record")
		}
		rec = *resp.Record
		return nil
	})
	return rec, err
}

// Update overwrites a metadata record.
func (r *Router) Update(fileSet, path string, rec sharedisk.Record) error {
	return r.Do(fileSet, func(_ placement.DaemonInfo, c Caller) error {
		_, err := c.Call(wire.Request{Op: wire.OpUpdate, FileSet: fileSet, Path: path, Record: &rec})
		return err
	})
}

// Remove deletes a metadata record.
func (r *Router) Remove(fileSet, path string) error {
	return r.Do(fileSet, func(_ placement.DaemonInfo, c Caller) error {
		_, err := c.Call(wire.Request{Op: wire.OpRemove, FileSet: fileSet, Path: path})
		return err
	})
}

// List returns paths under a prefix.
func (r *Router) List(fileSet, prefix string) ([]string, error) {
	var out []string
	err := r.Do(fileSet, func(_ placement.DaemonInfo, c Caller) error {
		resp, err := c.Call(wire.Request{Op: wire.OpList, FileSet: fileSet, Path: prefix})
		if err != nil {
			return err
		}
		out = resp.Paths
		return nil
	})
	return out, err
}

// Batch applies a pre-grouped batch against one file set's owner — the
// routing half of the sdk's client-side batching. Durable batches ride
// one journal group commit on the owning daemon.
func (r *Router) Batch(fileSet string, durable bool, items []wire.BatchItem) ([]wire.BatchResult, error) {
	var results []wire.BatchResult
	err := r.Do(fileSet, func(_ placement.DaemonInfo, c Caller) error {
		resp, err := c.Call(wire.Request{Op: wire.OpBatch, FileSet: fileSet, Durable: durable, Batch: items})
		if err != nil {
			return err
		}
		if len(resp.Results) != len(items) {
			return fmt.Errorf("wire: batch of %d items got %d results", len(items), len(resp.Results))
		}
		results = resp.Results
		return nil
	})
	return results, err
}

// Sync checkpoints every daemon in the fleet (the fleet-wide durability
// barrier); the first error wins but every daemon is attempted.
func (r *Router) Sync() error { return r.Broadcast(wire.Request{Op: wire.OpSync}) }

// Broadcast sends req to every daemon in the map — a wire.ClassBroadcast
// op, which changes or flushes state every daemon keeps its own copy of.
// The first error wins but every daemon is attempted. A traced req's
// context rides to each daemon, so a stitched timeline shows the op
// landing on every one.
func (r *Router) Broadcast(req wire.Request) error {
	var firstErr error
	for _, d := range r.Map().Daemons {
		c, err := r.Caller(d.Addr)
		if err == nil {
			_, err = c.Call(req)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fleet: %s on daemon %d: %w", req.Op, d.ID, err)
		}
	}
	return firstErr
}

// Forward routes a raw request by its FileSet field — the gateway's (and
// the traced sdk client's) pass-through. The request's trace context rides
// through untouched, and routing retries join its trace as route-retry
// spans.
func (r *Router) Forward(req wire.Request) (wire.Response, error) {
	var resp wire.Response
	err := r.do(req.Trace, req.FileSet, func(_ placement.DaemonInfo, c Caller) error {
		got, err := c.Call(req)
		resp = got
		return err
	})
	return resp, err
}
