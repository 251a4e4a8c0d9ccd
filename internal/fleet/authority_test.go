package fleet

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/sharedisk"
	"anufs/internal/volume"
	"anufs/internal/wire"
)

// fakeNet stands in for every daemon an authority dials, with no sockets:
// it records each handoff and takeover and answers it with answer (nil
// accepts everything). Map publishes are accepted and not recorded.
type fakeNet struct {
	answer func(c fakeCall) error

	mu    sync.Mutex
	calls []fakeCall
}

// fakeCall is one handoff or takeover as the authority sent it.
type fakeCall struct {
	op         wire.Op
	addr       string // the daemon dialed: the donor, or the takeover recipient
	to         string // the handoff recipient
	epoch      uint64
	fileSets   []string
	journalDir string
}

func (n *fakeNet) dial(addr string, _, _ time.Duration) (peer, error) {
	return &fakePeer{net: n, addr: addr}, nil
}

func (n *fakeNet) do(c fakeCall) error {
	n.mu.Lock()
	n.calls = append(n.calls, c)
	n.mu.Unlock()
	if n.answer == nil {
		return nil
	}
	return n.answer(c)
}

func (n *fakeNet) log() []fakeCall {
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.Clone(n.calls)
}

type fakePeer struct {
	net  *fakeNet
	addr string
}

func (p *fakePeer) Handoff(epoch uint64, fileSet, to string, _ []byte) error {
	return p.net.do(fakeCall{op: wire.OpHandoff, addr: p.addr, to: to, epoch: epoch, fileSets: []string{fileSet}})
}

func (p *fakePeer) Takeover(epoch uint64, fileSets []string, journalDir string, _ []byte) error {
	return p.net.do(fakeCall{op: wire.OpTakeover, addr: p.addr, epoch: epoch, fileSets: fileSets, journalDir: journalDir})
}

func (p *fakePeer) Call(wire.Request) (wire.Response, error) { return wire.Response{}, nil }
func (p *fakePeer) Close() error                             { return nil }

// journaled returns a disk holding cm — with the default volume, when cm
// lists no volumes — as the image an earlier authority committed: what
// NewAuthority resumes from.
func journaled(t testing.TB, cm *placement.ClusterMap) *sharedisk.Store {
	t.Helper()
	if cm.Volumes == nil {
		withDefault := *cm
		withDefault.Volumes = []volume.Info{volume.Default()}
		cm = &withDefault
	}
	im, err := encodeMapImage(cm)
	if err != nil {
		t.Fatal(err)
	}
	disk := sharedisk.NewStore(0)
	if err := disk.Install(MapFileSet, im); err != nil {
		t.Fatal(err)
	}
	return disk
}

// fakeAuthority resumes start as its authority daemon's authority,
// reaching every daemon through net and counting into a registry of its
// own.
func fakeAuthority(t *testing.T, net *fakeNet, start *placement.ClusterMap) *Authority {
	t.Helper()
	a, err := NewAuthority(AuthorityConfig{Disk: journaled(t, start)})
	if err != nil {
		t.Fatal(err)
	}
	a.dial = net.dial
	a.obs = obs.New()
	return a
}

// fakeAddr is daemon id's address in the fake fleets below.
func fakeAddr(id int) string { return fmt.Sprintf("d%d:1", id) }

// fakeFleet is a map at epoch 3 over n daemons of speed 1, with the file
// sets vol00..vol11 on owner.
func fakeFleet(n, owner int) *placement.ClusterMap {
	cm := &placement.ClusterMap{Epoch: 3, Assign: map[string]int{}}
	for id := 0; id < n; id++ {
		cm.Daemons = append(cm.Daemons, placement.DaemonInfo{ID: id, Addr: fakeAddr(id), Speed: 1})
	}
	for i := 0; i < 12; i++ {
		cm.Assign[fmt.Sprintf("vol%02d", i)] = owner
	}
	return cm
}

// failover runs one failover of victim the way the detector does.
func failover(a *Authority, victim int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.failoverLocked(victim)
}

// TestReconfigurationsOverFakePeers drives the reconfiguration executor
// through the peer seam alone: no socket, no daemon.
func TestReconfigurationsOverFakePeers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start *placement.ClusterMap
		// answer builds the fake fleet's answer; nil accepts everything.
		answer func() func(fakeCall) error
		run    func(t *testing.T, a *Authority, net *fakeNet)
	}{{
		name:  "leave drains past a refused handoff and keeps only what did not move",
		start: fakeFleet(3, 1),
		answer: func() func(fakeCall) error {
			return func(c fakeCall) error {
				if c.fileSets[0] == "vol03" {
					return errors.New("drain timed out")
				}
				return nil
			}
		},
		run: func(t *testing.T, a *Authority, net *fakeNet) {
			if _, err := a.Leave(1); err == nil || !strings.Contains(err.Error(), "vol03") {
				t.Fatalf("leave with a refused handoff = %v, want the vol03 error", err)
			}
			if n := len(net.log()); n != 12 {
				t.Fatalf("leave tried %d handoffs, want one per file set (12)", n)
			}
			cm := a.Map()
			if _, ok := cm.Daemon(1); !ok {
				t.Fatal("leaver dropped while it still owns a file set")
			}
			if got := cm.FileSetsOf(1); !slices.Equal(got, []string{"vol03"}) {
				t.Fatalf("leaver owns %v, want only [vol03]", got)
			}
			if n := a.obs.Counter(CtrLeaves).Load(); n != 0 {
				t.Fatalf("leave counter = %d after a failed leave", n)
			}
		},
	}, {
		name: "failover falls back in ID order and replays the map's journal dir",
		start: func() *placement.ClusterMap {
			cm := fakeFleet(4, 0)
			cm.Daemons[1].JournalDir = "/shared/d1"
			cm.Assign["vol00"] = 1
			return cm
		}(),
		answer: func() func(fakeCall) error {
			refused := 0
			return func(fakeCall) error {
				if refused < 2 {
					refused++
					return errors.New("replay failed")
				}
				return nil
			}
		},
		run: func(t *testing.T, a *Authority, net *fakeNet) {
			failover(a, 1)
			// ANU's pick first, then the other survivors in ID order.
			first := a.anu.Owner("vol00")
			want := []string{fakeAddr(first)}
			for _, id := range []int{0, 2, 3} {
				if id != first {
					want = append(want, fakeAddr(id))
				}
			}
			var got []string
			for _, c := range net.log() {
				if c.op != wire.OpTakeover || c.journalDir != "/shared/d1" {
					t.Fatalf("failover sent %+v, want takeovers replaying /shared/d1", c)
				}
				got = append(got, c.addr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("takeovers went to %v, want %v", got, want)
			}
			cm := a.Map()
			if _, ok := cm.Daemon(1); ok {
				t.Fatal("victim still in the map")
			}
			if owner, _ := cm.Owner("vol00"); owner.Addr != want[2] {
				t.Fatalf("vol00 owned by %q, want the third candidate %q", owner.Addr, want[2])
			}
		},
	}, {
		name:  "every candidate epoch is distinct and below the committed one",
		start: fakeFleet(3, 1),
		answer: func() func(fakeCall) error {
			return func(fakeCall) error { return errors.New("refused") }
		},
		run: func(t *testing.T, a *Authority, net *fakeNet) {
			failover(a, 1)
			calls := net.log()
			if len(calls) < 2 {
				t.Fatalf("%d takeovers attempted, want every survivor tried", len(calls))
			}
			final := a.Map().Epoch
			seen := map[uint64]bool{}
			for _, c := range calls {
				if seen[c.epoch] || c.epoch >= final {
					t.Fatalf("candidate epoch %d reused or not below the committed %d: %+v", c.epoch, final, calls)
				}
				seen[c.epoch] = true
			}
			if n := len(a.Map().Assign); n != 0 {
				t.Fatalf("%d file sets placed after every takeover was refused", n)
			}
			if n := a.obs.Counter(CtrFailoverUnplaced).Load(); n != 12 {
				t.Fatalf("unplaced counter = %d, want 12", n)
			}
		},
	}, {
		name:  "rebalance circuit-breaks a recipient its donor cannot reach",
		start: fakeFleet(3, 0),
		answer: func() func(fakeCall) error {
			return func(c fakeCall) error {
				if c.to == fakeAddr(2) {
					return &wire.CodedError{Code: wire.CodeDialRecipient, Err: errors.New("dial d2:1: refused")}
				}
				return nil
			}
		},
		run: func(t *testing.T, a *Authority, net *fakeNet) {
			want := map[int][]string{}
			for fs := range a.Map().Assign {
				want[a.anu.Owner(fs)] = append(want[a.anu.Owner(fs)], fs)
			}
			if len(want[1]) == 0 || len(want[2]) < 2 {
				t.Fatalf("ANU spreads %v: the case needs moves to 1 and at least two to 2", want)
			}
			_, err := a.Rebalance()
			if err == nil || !strings.Contains(err.Error(), "rebalance skipped moves") {
				t.Fatalf("rebalance with an unreachable recipient = %v, want skipped-moves error", err)
			}
			toward2 := 0
			for _, c := range net.log() {
				if c.to == fakeAddr(2) {
					toward2++
				}
			}
			if toward2 != 1 {
				t.Fatalf("%d handoffs toward the unreachable daemon, want 1", toward2)
			}
			cm := a.Map()
			for _, fs := range want[1] {
				if cm.Assign[fs] != 1 {
					t.Fatalf("%s on daemon %d, want 1: the breaker stopped a reachable move", fs, cm.Assign[fs])
				}
			}
			for _, fs := range want[2] {
				if cm.Assign[fs] != 0 {
					t.Fatalf("%s on daemon %d, want it left on 0", fs, cm.Assign[fs])
				}
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			net := &fakeNet{}
			if tc.answer != nil {
				net.answer = tc.answer()
			}
			tc.run(t, fakeAuthority(t, net, tc.start), net)
		})
	}
}

// TestLeaseTable drives the authority's liveness leases with explicit
// times: no socket, no sleep.
func TestLeaseTable(t *testing.T) {
	const lease = time.Second
	t0 := time.Now()
	for _, tc := range []struct {
		name  string
		lease time.Duration // the authority's; 0 turns the detector off
		keep  func(a *Authority)
		id    int
		at    time.Duration // after t0
		want  bool
	}{
		{"renewed is live", lease, func(a *Authority) { a.renew(1, t0) }, 1, lease, true},
		{"past the deadline is dead", lease, func(a *Authority) { a.renew(1, t0) }, 1, lease + 1, false},
		{"never renewed is dead", lease, func(*Authority) {}, 1, 0, false},
		{"a renewal moves the deadline", lease, func(a *Authority) { a.renew(1, t0); a.renew(1, t0.Add(lease)) }, 1, 2 * lease, true},
		{"forget drops it", lease, func(a *Authority) { a.renew(1, t0); a.forget(1) }, 1, 0, false},
		{"the authority's own ID is always live", lease, func(*Authority) {}, 0, 10 * lease, true},
		{"with the detector off every ID is live", 0, func(*Authority) {}, 2, 10 * lease, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAuthority(AuthorityConfig{Daemons: fakeFleet(3, 0).Daemons, Lease: tc.lease})
			if err != nil {
				t.Fatal(err)
			}
			tc.keep(a)
			if got := a.live(tc.id, t0.Add(tc.at)); got != tc.want {
				t.Fatalf("live(%d) %v after t0 = %v, want %v", tc.id, tc.at, got, tc.want)
			}
		})
	}
}

// leasedAuthority is fakeAuthority with the failure detector's lease
// table on (the detector loop itself is not started), and daemons 1 and 2
// renewed at t0.
func leasedAuthority(t *testing.T, net *fakeNet, start *placement.ClusterMap, lease time.Duration, t0 time.Time) *Authority {
	t.Helper()
	a, err := NewAuthority(AuthorityConfig{Disk: journaled(t, start), Lease: lease})
	if err != nil {
		t.Fatal(err)
	}
	a.dial = net.dial
	a.obs = obs.New()
	a.renew(1, t0)
	a.renew(2, t0)
	return a
}

// reap runs one detector sweep at now.
func reap(a *Authority, now time.Time) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reapLocked(now)
}

// TestFailoverOnLeaseLapse: a daemon that stops renewing is failed over
// once its lease lapses and not before. Its file sets go to live daemons
// by takeover of its journal, under a higher epoch; the daemon that kept
// renewing stays.
func TestFailoverOnLeaseLapse(t *testing.T) {
	const lease = 10 * time.Second
	t0 := time.Now()
	start := fakeFleet(3, 1)
	start.Daemons[1].JournalDir = "j1"
	net := &fakeNet{}
	a := leasedAuthority(t, net, start, lease, t0)
	epoch0 := a.Map().Epoch

	// Daemon 2 keeps renewing; daemon 1 goes silent.
	a.renew(2, t0.Add(6*time.Second))
	if reap(a, t0.Add(6*time.Second)) || a.Map().Epoch != epoch0 {
		t.Fatal("a daemon was failed over before any lease lapsed")
	}
	if !reap(a, t0.Add(12*time.Second)) {
		t.Fatal("daemon 1's lapsed lease was not failed over")
	}
	cm := a.Map()
	if _, ok := cm.Daemon(1); ok {
		t.Fatal("daemon 1 is still in the map after its lease lapsed")
	}
	if _, ok := cm.Daemon(2); !ok {
		t.Fatal("daemon 2 renewed its lease and was failed over")
	}
	if cm.Epoch <= epoch0 {
		t.Fatalf("epoch did not advance on failover: %d -> %d", epoch0, cm.Epoch)
	}
	if len(cm.Assign) != 12 || len(cm.FileSetsOf(1)) != 0 {
		t.Fatalf("assignment after failover = %v, want all 12 file sets off daemon 1", cm.Assign)
	}
	calls := net.log()
	if len(calls) == 0 {
		t.Fatal("no takeover was sent")
	}
	for _, c := range calls {
		if c.op != wire.OpTakeover || c.journalDir != "j1" || c.addr == fakeAddr(1) {
			t.Fatalf("failover sent %+v, want takeovers of j1 by live daemons", c)
		}
	}
}

// TestLeaveTriggersImmediateFailover: a leave moves the leaver's file sets
// and drops it from the map at once, by live handoffs and with no wait for
// its lease to lapse, and leaves no lease behind for the detector to fail
// over later.
func TestLeaveTriggersImmediateFailover(t *testing.T) {
	const lease = 10 * time.Second
	t0 := time.Now()
	net := &fakeNet{}
	a := leasedAuthority(t, net, fakeFleet(3, 1), lease, t0)
	epoch0 := a.Map().Epoch

	epoch, err := a.Leave(1)
	if err != nil {
		t.Fatal(err)
	}
	cm := a.Map()
	if epoch <= epoch0 || cm.Epoch != epoch {
		t.Fatalf("after Leave: epoch %d -> %d, map at %d", epoch0, epoch, cm.Epoch)
	}
	if _, ok := cm.Daemon(1); ok {
		t.Fatal("daemon 1 is still in the map after it left")
	}
	if len(cm.Assign) != 12 || len(cm.FileSetsOf(1)) != 0 {
		t.Fatalf("assignment after leave = %v, want all 12 file sets off daemon 1", cm.Assign)
	}
	if a.live(1, t0) {
		t.Fatal("the leaver still holds a lease")
	}
	for _, c := range net.log() {
		if c.op != wire.OpHandoff || c.addr != fakeAddr(1) {
			t.Fatalf("leave sent %+v, want handoffs from daemon 1", c)
		}
	}

	// Past the moment the leaver's lease would have lapsed, the detector
	// has nothing left to fail over.
	a.renew(2, t0.Add(11*time.Second))
	if reap(a, t0.Add(12*time.Second)) || a.Map().Epoch != epoch {
		t.Fatal("the detector failed a daemon over after the leave")
	}
}
