package sdk

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"anufs/internal/obs"
	"anufs/internal/wire"
)

// Sequential calls ramp the pool to its full size: every call that finds
// an empty, due slot dials it.
func TestPoolRampsToFullSize(t *testing.T) {
	f := startFleet(t, 1)
	p := NewPool(f.daemons[0].addr, Options{PoolSize: 3, Timeout: 5 * time.Second, HealthInterval: -1})
	defer p.Close()
	for i := 0; i < 3; i++ {
		if err := p.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	if got := p.Live(); got != 3 {
		t.Fatalf("live connections = %d after 3 calls, want 3", got)
	}
}

// A pool to an unreachable address errors calls (after the slots back
// off) instead of hanging, and NewPool itself never fails.
func TestPoolUnreachableAddress(t *testing.T) {
	p := NewPool("127.0.0.1:1", Options{PoolSize: 2, HealthInterval: -1})
	defer p.Close()
	if err := p.Ping(); err == nil {
		t.Fatal("ping against an unreachable address succeeded")
	}
	if got := p.Live(); got != 0 {
		t.Fatalf("live connections = %d to an unreachable address", got)
	}
}

// When the daemon dies, calls fail and the erroring connections are
// discarded; when it comes back on the same address, the slots redial
// after their backoff and the pool recovers without being rebuilt.
func TestPoolRedialsAfterRestart(t *testing.T) {
	f := startFleet(t, 1)
	d := f.daemons[0]
	p := NewPool(d.addr, Options{PoolSize: 2, Timeout: time.Second, HealthInterval: -1})
	defer p.Close()
	if err := p.Ping(); err != nil {
		t.Fatal(err)
	}

	d.srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for p.Live() > 0 && time.Now().Before(deadline) {
		p.Ping() // errors discard the dead connections
		time.Sleep(10 * time.Millisecond)
	}
	if p.Live() != 0 {
		t.Fatal("dead connections were never discarded")
	}

	srv := wire.NewServer(d.clus)
	if _, err := srv.Listen(d.addr); err != nil {
		t.Fatalf("restart on %s: %v", d.addr, err)
	}
	d.srv = srv // cleanup closes the new server
	var err error
	for time.Now().Before(deadline) {
		if err = p.Ping(); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("pool never recovered after restart: %v", err)
	}
}

// The health loop notices a wedged connection and discards it without
// waiting for an unlucky caller.
func TestPoolHealthLoopDiscards(t *testing.T) {
	f := startFleet(t, 1)
	d := f.daemons[0]
	p := NewPool(d.addr, Options{PoolSize: 1, Timeout: 200 * time.Millisecond,
		HealthInterval: 50 * time.Millisecond})
	defer p.Close()
	if err := p.Ping(); err != nil {
		t.Fatal(err)
	}
	d.srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for p.Live() > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if p.Live() != 0 {
		t.Fatal("health loop never discarded the dead connection")
	}
}

func TestPoolClosedErrors(t *testing.T) {
	f := startFleet(t, 1)
	p := NewPool(f.daemons[0].addr, Options{PoolSize: 1, HealthInterval: -1})
	if err := p.Ping(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if err := p.Ping(); err == nil {
		t.Fatal("call on a closed pool succeeded")
	}
}

// TestClosedPoolReportsNoGauges: a closed pool's gauges leave /metrics, so
// the pool that replaces it is the only series for its address.
func TestClosedPoolReportsNoGauges(t *testing.T) {
	reg := obs.New()
	p := NewPool("127.0.0.1:1", Options{PoolSize: 1, HealthInterval: -1, Obs: reg})
	series := `anufs_sdk_pool_live{daemon="127.0.0.1:1"}`
	var before bytes.Buffer
	reg.WriteMetrics(&before)
	if !strings.Contains(before.String(), series) {
		t.Fatalf("open pool exports no %s line:\n%s", series, before.String())
	}
	p.Close()
	var after bytes.Buffer
	reg.WriteMetrics(&after)
	if strings.Contains(after.String(), series) {
		t.Fatalf("closed pool still exports %s:\n%s", series, after.String())
	}
}

// TestPoolPickAllocFree: choosing a connection for a call on a full pool —
// Pool.pick's power-of-two-choices draw and the Pool.nth walks it makes —
// allocates nothing.
func TestPoolPickAllocFree(t *testing.T) {
	const size = 4
	p := &Pool{
		conns:   []*Conn{new(Conn), new(Conn), new(Conn), new(Conn)},
		dialing: make([]bool, size),
		next:    make([]time.Time, size),
	}
	now := time.Now()
	for _, row := range []struct {
		name string
		op   func() *Conn
	}{
		{"Pool.nth", func() *Conn { return p.nth(size - 1) }},
		{"Pool.pick", func() *Conn { c, _ := p.pick(now); return c }},
	} {
		if n := testing.AllocsPerRun(100, func() {
			if row.op() == nil {
				t.Fatal("no connection picked from a full pool")
			}
		}); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", row.name, n)
		}
	}
}
