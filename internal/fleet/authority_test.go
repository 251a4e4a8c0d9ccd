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

// fakeAuthority resumes start as daemon 0's authority, reaching every
// daemon through net and counting into a registry of its own.
func fakeAuthority(t *testing.T, net *fakeNet, start *placement.ClusterMap) *Authority {
	t.Helper()
	a, err := NewAuthority(AuthorityConfig{Resume: start})
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
