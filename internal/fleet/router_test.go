package fleet

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/wire"
)

// fakeMapSource is an in-memory Caller that answers every request with a
// map at a settable epoch, or fails on demand — the router's map cache
// without TCP. Its map places fs00 on daemon 0 at addr ("d0" when empty),
// which is also the advertised authority.
type fakeMapSource struct {
	addr string

	mu     sync.Mutex
	epoch  uint64
	down   bool
	calls  int
	closed int
}

func (s *fakeMapSource) Call(req wire.Request) (wire.Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.down {
		return wire.Response{}, errors.New("fake source down")
	}
	addr := s.addr
	if addr == "" {
		addr = "d0"
	}
	cm := &placement.ClusterMap{
		Epoch:   s.epoch,
		Daemons: []placement.DaemonInfo{{ID: 0, Addr: addr, Speed: 1}},
		Assign:  map[string]int{"fs00": 0},
	}
	b, err := cm.Encode()
	if err != nil {
		return wire.Response{}, err
	}
	return wire.Response{Map: b, Epoch: s.epoch}, nil
}

func (s *fakeMapSource) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed++
	return nil
}

func (s *fakeMapSource) set(epoch uint64, down bool) {
	s.mu.Lock()
	s.epoch, s.down = epoch, down
	s.mu.Unlock()
}

func (s *fakeMapSource) stats() (calls, closed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls, s.closed
}

// fakeRouter builds a router whose authority is "auth" and whose peer map
// sources are peers, over the in-memory sources; dials counts the dials
// per address.
func fakeRouter(t *testing.T, srcs map[string]*fakeMapSource, peers ...string) (*Router, *obs.Registry, map[string]int) {
	t.Helper()
	reg := obs.New()
	dials := map[string]int{}
	var mu sync.Mutex
	r, err := NewRouter(RouterConfig{
		AuthorityAddr: "auth",
		MapSources:    peers,
		Obs:           reg,
		DialCaller: func(addr string) (Caller, error) {
			mu.Lock()
			dials[addr]++
			mu.Unlock()
			s, ok := srcs[addr]
			if !ok {
				return nil, errors.New("no route to " + addr)
			}
			return s, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, reg, dials
}

// A peer that satisfies the floor spares the authority entirely — that is
// the whole point of peer map sources in a gateway tier.
func TestRouterPeerSparesAuthority(t *testing.T) {
	peer := &fakeMapSource{epoch: 5}
	auth := &fakeMapSource{epoch: 5}
	r, reg, _ := fakeRouter(t, map[string]*fakeMapSource{"peer": peer, "auth": auth}, "peer")
	if cm := r.Map(); cm.Epoch != 5 {
		t.Fatalf("epoch %d, want 5", cm.Epoch)
	}
	if calls, _ := auth.stats(); calls != 0 {
		t.Fatalf("authority was asked %d times with a satisfying peer", calls)
	}
	if got := reg.Counter(CtrMapPeerHits).Load(); got != 1 {
		t.Fatalf("peer hits = %d, want 1", got)
	}
	if got := reg.Counter(CtrMapFetches).Load(); got != 1 {
		t.Fatalf("fetches = %d, want 1", got)
	}

	// Cached and satisfying: no further fetches.
	if _, err := r.current(); err != nil {
		t.Fatal(err)
	}
	if calls, _ := peer.stats(); calls != 1 {
		t.Fatalf("cached read refetched (peer calls = %d)", calls)
	}
}

// A raised floor makes the cached map stale: a stale peer is consulted but
// cannot satisfy it, so the refresh falls through to the authority.
func TestRouterRaisedFloorFallsThroughStalePeer(t *testing.T) {
	peer := &fakeMapSource{epoch: 5}
	auth := &fakeMapSource{epoch: 9}
	r, _, _ := fakeRouter(t, map[string]*fakeMapSource{"peer": peer, "auth": auth}, "peer")
	if cm := r.Map(); cm.Epoch != 5 {
		t.Fatalf("initial epoch %d, want 5", cm.Epoch)
	}
	r.raiseFloor(7)
	cm, err := r.current()
	if err != nil {
		t.Fatal(err)
	}
	if cm.Epoch != 9 {
		t.Fatalf("epoch after the floor rose = %d, want 9", cm.Epoch)
	}
	if calls, _ := auth.stats(); calls != 1 {
		t.Fatalf("authority calls = %d, want 1", calls)
	}
	// A floor below the cached epoch changes nothing.
	r.raiseFloor(3)
	if _, err := r.current(); err != nil {
		t.Fatal(err)
	}
	if calls, _ := auth.stats(); calls != 1 {
		t.Fatalf("a lower floor triggered a refetch (auth calls = %d)", calls)
	}
}

// A down source is skipped and its connection dropped for redial; the
// next source still answers, so the refresh succeeds.
func TestRouterSkipsDownSource(t *testing.T) {
	peer := &fakeMapSource{down: true}
	auth := &fakeMapSource{epoch: 2}
	r, _, dials := fakeRouter(t, map[string]*fakeMapSource{"peer": peer, "auth": auth}, "peer")
	if cm := r.Map(); cm.Epoch != 2 {
		t.Fatalf("epoch %d, want 2", cm.Epoch)
	}
	if _, closed := peer.stats(); closed == 0 {
		t.Fatal("failed source connection was not dropped")
	}

	// The peer recovers with a newer map; the next forced refresh redials
	// and uses it.
	peer.set(4, false)
	r.raiseFloor(3)
	cm, err := r.current()
	if err != nil {
		t.Fatal(err)
	}
	if cm.Epoch != 4 {
		t.Fatalf("epoch %d after peer recovery, want 4", cm.Epoch)
	}
	if dials["peer"] != 2 {
		t.Fatalf("peer dialed %d times, want 2 (once more after the drop)", dials["peer"])
	}
}

// With every source down the error names the first failure, but the stale
// cached map is still returned — callers route on their best knowledge.
func TestRouterAllSourcesDown(t *testing.T) {
	peer := &fakeMapSource{epoch: 5}
	auth := &fakeMapSource{epoch: 5}
	r, _, _ := fakeRouter(t, map[string]*fakeMapSource{"peer": peer, "auth": auth}, "peer")
	peer.set(5, true)
	auth.set(5, true)
	r.raiseFloor(6)
	cm, err := r.current()
	if err == nil {
		t.Fatal("refresh with every source down reported success")
	}
	if !strings.Contains(err.Error(), "map source peer") {
		t.Fatalf("error does not name the source: %v", err)
	}
	if cm == nil || cm.Epoch != 5 {
		t.Fatalf("stale map not returned alongside the error: %v", cm)
	}
}

// TestRouterDialsEachAddressOnce: map fetches, routed operations and
// authority calls to one address share one connection — a router whose
// authority also owns file sets dials it once, not once per role.
func TestRouterDialsEachAddressOnce(t *testing.T) {
	auth := &fakeMapSource{addr: "auth", epoch: 1}
	r, _, dials := fakeRouter(t, map[string]*fakeMapSource{"auth": auth})
	if _, err := r.Forward(wire.Request{Op: wire.OpStat, FileSet: "fs00", Path: "/a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CallAuthority(wire.Request{Op: wire.OpVolumeList}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if dials["auth"] != 1 {
		t.Fatalf("authority address dialed %d times, want 1", dials["auth"])
	}
}

// An authority answer raises the floor to the epoch it names: the next
// routed read refetches until the map reaches it.
func TestRouterCallAuthorityRaisesFloor(t *testing.T) {
	auth := &fakeMapSource{epoch: 1}
	r, _, _ := fakeRouter(t, map[string]*fakeMapSource{"auth": auth})
	auth.set(4, false)
	if _, err := r.CallAuthority(wire.Request{Op: wire.OpAssign, FileSet: "fs00", Daemon: -1}); err != nil {
		t.Fatal(err)
	}
	cm, err := r.current()
	if err != nil || cm.Epoch != 4 {
		t.Fatalf("map after an authority answer at epoch 4 = %v, %v", cm, err)
	}
}

// silentPeer is a daemon connection whose calls get no answer until the
// test releases them; closing it does not interrupt them.
type silentPeer struct {
	entered, release chan struct{}
}

func (p *silentPeer) Call(req wire.Request) (wire.Response, error) {
	p.entered <- struct{}{}
	<-p.release
	return wire.Response{}, nil
}

func (p *silentPeer) Close() error { return nil }

// TestRouterCloseNotBlockedByForwardInFlight: Router.Close returns while a
// Forward waits on a peer that never answers — no router lock is held
// across a daemon round trip, and Close waits for no call in flight. The
// peer is released only after Close has returned: a regression deadlocks
// here, and go test -timeout prints the stacks.
func TestRouterCloseNotBlockedByForwardInFlight(t *testing.T) {
	auth := &fakeMapSource{epoch: 1}
	peer := &silentPeer{entered: make(chan struct{}), release: make(chan struct{})}
	r, err := NewRouter(RouterConfig{
		AuthorityAddr: "auth",
		DialCaller: func(addr string) (Caller, error) {
			if addr == "auth" {
				return auth, nil
			}
			return peer, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	forwarded := make(chan error, 1)
	go func() {
		_, err := r.Forward(wire.Request{Op: wire.OpStat, FileSet: "fs00", Path: "/a"})
		forwarded <- err
	}()
	<-peer.entered
	r.Close()
	close(peer.release)
	if err := <-forwarded; err != nil {
		t.Fatal(err)
	}
}

// TestRouterCloseIsFinal: Close tears down every cached connection, and
// afterwards the router dials nothing — a refresh or a Caller errors.
func TestRouterCloseIsFinal(t *testing.T) {
	auth := &fakeMapSource{epoch: 1}
	r, _, dials := fakeRouter(t, map[string]*fakeMapSource{"auth": auth})
	r.Close()
	if _, closed := auth.stats(); closed != 1 {
		t.Fatal("close did not tear down the cached connection")
	}
	r.raiseFloor(99)
	if _, err := r.current(); err == nil {
		t.Fatal("refresh after close succeeded")
	}
	if _, err := r.Caller("d0"); err == nil {
		t.Fatal("Caller after close succeeded")
	}
	if dials["auth"] != 1 || dials["d0"] != 0 {
		t.Fatalf("dials after close: %v, want auth once (before close) and nothing else", dials)
	}
}
