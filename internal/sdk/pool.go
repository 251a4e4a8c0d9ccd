package sdk

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"anufs/internal/obs"
	"anufs/internal/wire"
)

// Pool counter names (reported into Options' shared counter set).
const (
	// CtrPoolRedials counts slot dial attempts after the initial fill —
	// i.e. how often connections died and were re-established (or retried).
	CtrPoolRedials = "sdk_pool_redials"
	// CtrPoolHealthFailures counts health-loop pings that failed and
	// discarded a connection.
	CtrPoolHealthFailures = "sdk_pool_health_failures"
)

// Pool errors. Both wrap wire.ErrConnClosed: the fleet router treats them
// as transient — a caller that lost the race with an invalidated pool, or
// found every slot backing off, reconnects and retries like everyone else.
var (
	errNoConn     = fmt.Errorf("sdk: no connection available: %w", wire.ErrConnClosed)
	errPoolClosed = fmt.Errorf("sdk: pool closed: %w", wire.ErrConnClosed)
)

// Pool is a fixed-size pool of pipelined connections to one address.
// Calls spread across the live connections by power-of-two-choices on
// in-flight depth; dead slots redial lazily with jittered backoff, and a
// background health loop pings the survivors. NewPool never fails — a
// pool to an unreachable address sits empty and errors calls until the
// address comes back. Implements fleet.Caller.
type Pool struct {
	addr string
	opts Options

	mu      sync.Mutex
	conns   []*Conn // nil = empty slot
	dialing []bool
	filled  []bool // slot has held a connection before (dials after it are redials)
	back    []*wire.Backoff
	next    []time.Time // earliest redial per slot
	closed  bool
	// dropGauges takes the pool's gauge source off the registry (Close).
	dropGauges func()

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewPool builds a pool of opts.PoolSize connections to addr. No dial
// happens here; slots fill on first use.
func NewPool(addr string, opts Options) *Pool {
	opts = opts.withDefaults()
	p := &Pool{
		addr:    addr,
		opts:    opts,
		conns:   make([]*Conn, opts.PoolSize),
		dialing: make([]bool, opts.PoolSize),
		filled:  make([]bool, opts.PoolSize),
		back:    make([]*wire.Backoff, opts.PoolSize),
		next:    make([]time.Time, opts.PoolSize),
		stop:    make(chan struct{}),
	}
	for i := range p.back {
		p.back[i] = wire.NewBackoff(50*time.Millisecond, 5*time.Second)
	}
	if opts.Obs != nil {
		// Per-daemon pool health on /metrics: how many connections are up
		// and how deep the pipelines run, labeled by target address. Close
		// removes the source, so the pool that replaced it is the only
		// series for its address.
		lbl := fmt.Sprintf("daemon=%q", addr)
		p.dropGauges = opts.Obs.AddGauges(func() []obs.Gauge {
			return []obs.Gauge{
				{Name: "sdk_pool_live", Labels: lbl, Value: float64(p.Live())},
				{Name: "sdk_pool_inflight", Labels: lbl, Value: float64(p.InFlight())},
			}
		})
	}
	if opts.HealthInterval > 0 {
		p.wg.Add(1)
		go p.healthLoop()
	}
	return p
}

// nth returns the k-th live connection (caller holds p.mu).
//
// TestPoolPickAllocFree holds it to zero allocations.
func (p *Pool) nth(k int) *Conn {
	for _, c := range p.conns {
		if c == nil {
			continue
		}
		if k == 0 {
			return c
		}
		k--
	}
	return nil
}

// pick chooses a connection for the next call (caller holds p.mu): an
// empty, redial-due slot is claimed first (the pool ramps to full size
// under load), otherwise power-of-two-choices — sample two live
// connections, take the shallower queue. P2C gives near-best-of-N load
// spread for the cost of two reads, and unlike round-robin it adapts when
// one connection's daemon stalls. Returns (nil, slot) when the caller
// should dial slot, (nil, -1) when nothing is usable yet.
//
// TestPoolPickAllocFree holds it to zero allocations.
func (p *Pool) pick(now time.Time) (*Conn, int) {
	live := 0
	for _, c := range p.conns {
		if c != nil {
			live++
		}
	}
	if live < len(p.conns) {
		for i, c := range p.conns {
			if c == nil && !p.dialing[i] && !now.Before(p.next[i]) {
				return nil, i
			}
		}
	}
	if live == 0 {
		return nil, -1
	}
	if live == 1 {
		return p.nth(0), -1
	}
	r1 := rand.Intn(live)
	r2 := rand.Intn(live - 1)
	if r2 >= r1 {
		r2++
	}
	c1, c2 := p.nth(r1), p.nth(r2)
	if c2.InFlight() < c1.InFlight() {
		return c2, -1
	}
	return c1, -1
}

// get returns a connection, dialing an empty slot when picking asks for
// one. A failed dial backs its slot off and falls through to whatever is
// live; a pool with nothing live and nothing due errors with errNoConn.
func (p *Pool) get() (*Conn, error) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, errPoolClosed
		}
		c, slot := p.pick(time.Now())
		if c != nil {
			p.mu.Unlock()
			return c, nil
		}
		if slot < 0 {
			p.mu.Unlock()
			return nil, errNoConn
		}
		p.dialing[slot] = true
		p.mu.Unlock()
		if c := p.dialSlot(slot); c != nil {
			return c, nil
		}
		// The dial failed; loop once more over the live connections (the
		// slot is now backing off, so this cannot spin).
	}
}

// dialSlot fills one slot, outside the pool lock. On failure the slot
// backs off with jitter (wire.Backoff), so a dead daemon is not hammered
// by every caller at once.
func (p *Pool) dialSlot(slot int) *Conn {
	p.mu.Lock()
	if p.filled[slot] {
		p.mu.Unlock()
		p.opts.Obs.Counter(CtrPoolRedials).Add(1)
	} else {
		p.mu.Unlock()
	}
	c, err := Dial(p.addr, p.opts)
	p.mu.Lock()
	p.dialing[slot] = false
	if err != nil {
		p.next[slot] = time.Now().Add(p.back[slot].Next())
		p.mu.Unlock()
		return nil
	}
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return nil
	}
	p.back[slot].Reset()
	p.conns[slot] = c
	p.filled[slot] = true
	p.mu.Unlock()
	return c
}

// discard drops a connection that errored at the transport level; its
// slot redials on next use.
func (p *Pool) discard(c *Conn) {
	p.mu.Lock()
	found := false
	for i, pc := range p.conns {
		if pc == c {
			p.conns[i] = nil
			found = true
			break
		}
	}
	p.mu.Unlock()
	if found {
		go c.Close()
	}
}

// Call sends one request over the least-loaded live connection.
// Transport-level failures discard the connection (the slot redials);
// the error is surfaced for the router's retry discipline.
func (p *Pool) Call(req wire.Request) (wire.Response, error) {
	c, err := p.get()
	if err != nil {
		return wire.Response{}, err
	}
	resp, err := c.Call(req)
	if err != nil {
		// Only connection-level failures poison the slot; wire.ErrTimedOut
		// does not — a slow server is not a dead socket.
		if errors.Is(err, wire.ErrConnClosed) || errors.Is(err, wire.ErrSendFailed) {
			p.discard(c)
		}
	}
	return resp, err
}

// Ping round-trips a no-op over one pooled connection.
func (p *Pool) Ping() error {
	_, err := p.Call(wire.Request{Op: wire.OpPing})
	return err
}

// InFlight sums the in-flight calls across the pool's connections.
func (p *Pool) InFlight() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, c := range p.conns {
		if c != nil {
			n += c.InFlight()
		}
	}
	return n
}

// Live reports how many connections are currently established.
func (p *Pool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.conns {
		if c != nil {
			n++
		}
	}
	return n
}

// healthLoop pings every live connection each HealthInterval and discards
// the ones that fail — a wedged connection is noticed here instead of by
// the unlucky caller whose request would otherwise ride it into a
// timeout.
func (p *Pool) healthLoop() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.opts.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			p.mu.Lock()
			conns := make([]*Conn, 0, len(p.conns))
			for _, c := range p.conns {
				if c != nil {
					conns = append(conns, c)
				}
			}
			p.mu.Unlock()
			for _, c := range conns {
				if c.Ping() != nil {
					p.opts.Obs.Counter(CtrPoolHealthFailures).Add(1)
					p.discard(c)
				}
			}
		}
	}
}

// Close tears the pool down; further calls fail. Idempotent.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := p.conns
	p.conns = make([]*Conn, len(conns))
	close(p.stop)
	p.mu.Unlock()
	if p.dropGauges != nil {
		p.dropGauges()
	}
	p.wg.Wait()
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
	return nil
}
