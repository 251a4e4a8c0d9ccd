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

// fakeMapSource is an in-memory Caller that serves OpMap at a settable
// epoch, or fails on demand — the MapCache contract without TCP.
type fakeMapSource struct {
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
	cm := &placement.ClusterMap{
		Epoch:   s.epoch,
		Daemons: []placement.DaemonInfo{{ID: 0, Addr: "d0", Speed: 1}},
		Assign:  map[string]int{"fs00": 0},
	}
	b, err := cm.Encode()
	if err != nil {
		return wire.Response{}, err
	}
	return wire.Response{ID: req.ID, Map: b}, nil
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

func fakeCache(t *testing.T, srcs map[string]*fakeMapSource, order ...string) (*MapCache, *obs.Registry) {
	t.Helper()
	ctrs := obs.New()
	mc := NewMapCache(order, func(addr string) (Caller, error) {
		s, ok := srcs[addr]
		if !ok {
			return nil, errors.New("no route to " + addr)
		}
		return s, nil
	}, ctrs)
	t.Cleanup(mc.Close)
	return mc, ctrs
}

// A peer that satisfies the floor spares the authority entirely — that is
// the whole point of the shared gateway map cache.
func TestMapCachePeerSparesAuthority(t *testing.T) {
	peer := &fakeMapSource{epoch: 5}
	auth := &fakeMapSource{epoch: 5}
	mc, ctrs := fakeCache(t, map[string]*fakeMapSource{"peer": peer, "auth": auth}, "peer", "auth")

	cm, err := mc.Get()
	if err != nil {
		t.Fatal(err)
	}
	if cm.Epoch != 5 {
		t.Fatalf("epoch %d, want 5", cm.Epoch)
	}
	if calls, _ := auth.stats(); calls != 0 {
		t.Fatalf("authority was asked %d times with a satisfying peer", calls)
	}
	if got := ctrs.Counter(CtrMapPeerHits).Load(); got != 1 {
		t.Fatalf("peer hits = %d, want 1", got)
	}
	if got := ctrs.Counter(CtrMapFetches).Load(); got != 1 {
		t.Fatalf("fetches = %d, want 1", got)
	}

	// Cached and satisfying: no further fetches.
	if _, err := mc.Get(); err != nil {
		t.Fatal(err)
	}
	if calls, _ := peer.stats(); calls != 1 {
		t.Fatalf("cached Get refetched (peer calls = %d)", calls)
	}
}

// Invalidate raises the floor: a stale peer is consulted but cannot
// satisfy it, so the refresh falls through to the authority.
func TestMapCacheInvalidateFallsThroughStalePeer(t *testing.T) {
	peer := &fakeMapSource{epoch: 5}
	auth := &fakeMapSource{epoch: 9}
	mc, _ := fakeCache(t, map[string]*fakeMapSource{"peer": peer, "auth": auth}, "peer", "auth")

	if cm, err := mc.Get(); err != nil || cm.Epoch != 5 {
		t.Fatalf("initial Get = %v, %v", cm, err)
	}
	mc.Invalidate(7)
	cm, err := mc.Get()
	if err != nil {
		t.Fatal(err)
	}
	if cm.Epoch != 9 {
		t.Fatalf("post-invalidate epoch %d, want 9", cm.Epoch)
	}
	if calls, _ := auth.stats(); calls != 1 {
		t.Fatalf("authority calls = %d, want 1", calls)
	}
	// A lower floor than the cached epoch is a no-op.
	mc.Invalidate(3)
	if _, err := mc.Get(); err != nil {
		t.Fatal(err)
	}
	if calls, _ := auth.stats(); calls != 1 {
		t.Fatalf("no-op invalidate triggered a refetch (auth calls = %d)", calls)
	}
}

// A down source is skipped (and its connection dropped for redial); the
// next source still answers, so the refresh succeeds.
func TestMapCacheSkipsDownSource(t *testing.T) {
	peer := &fakeMapSource{down: true}
	auth := &fakeMapSource{epoch: 2}
	mc, _ := fakeCache(t, map[string]*fakeMapSource{"peer": peer, "auth": auth}, "peer", "auth")

	cm, err := mc.Get()
	if err != nil {
		t.Fatal(err)
	}
	if cm.Epoch != 2 {
		t.Fatalf("epoch %d, want 2", cm.Epoch)
	}
	if _, closed := peer.stats(); closed == 0 {
		t.Fatal("failed source connection was not dropped")
	}

	// Peer recovers with a newer map; the next forced refresh uses it.
	peer.set(4, false)
	mc.Invalidate(3)
	cm, err = mc.Get()
	if err != nil {
		t.Fatal(err)
	}
	if cm.Epoch != 4 {
		t.Fatalf("epoch %d after peer recovery, want 4", cm.Epoch)
	}
}

// With every source down the error names the first failure, but the stale
// cached map is still returned — callers route on their best knowledge.
func TestMapCacheAllSourcesDown(t *testing.T) {
	peer := &fakeMapSource{epoch: 5}
	mc, _ := fakeCache(t, map[string]*fakeMapSource{"peer": peer}, "peer")

	if _, err := mc.Get(); err != nil {
		t.Fatal(err)
	}
	peer.set(5, true)
	mc.Invalidate(6)
	cm, err := mc.Get()
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

func TestMapCacheNoSources(t *testing.T) {
	mc, _ := fakeCache(t, nil)
	if _, err := mc.Refresh(); err == nil || !strings.Contains(err.Error(), "no sources") {
		t.Fatalf("refresh with no sources = %v", err)
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
	return wire.Response{ID: req.ID}, nil
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

func TestMapCacheClose(t *testing.T) {
	peer := &fakeMapSource{epoch: 1}
	mc, _ := fakeCache(t, map[string]*fakeMapSource{"peer": peer}, "peer")
	if _, err := mc.Get(); err != nil {
		t.Fatal(err)
	}
	mc.Close()
	if _, closed := peer.stats(); closed != 1 {
		t.Fatal("close did not tear down the cached connection")
	}
	mc.Invalidate(99)
	if _, err := mc.Get(); err == nil {
		t.Fatal("refresh after close succeeded")
	}
}
