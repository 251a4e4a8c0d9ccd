package placement

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"anufs/internal/core"
	"anufs/internal/interval"
	"anufs/internal/trace"
)

var testServers = []int{0, 1, 2, 3, 4}

func fsNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fs%03d", i)
	}
	return out
}

func TestSimpleRandomCoversAllServers(t *testing.T) {
	p := NewSimpleRandom(1)
	fss := fsNames(500)
	if err := p.Init(testServers, fss); err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, fs := range fss {
		id := p.Owner(fs)
		counts[id]++
	}
	if len(counts) != len(testServers) {
		t.Fatalf("only %d servers used", len(counts))
	}
	for id, c := range counts {
		if c < 50 || c > 150 {
			t.Fatalf("server %d got %d of 500 file sets — not uniform", id, c)
		}
	}
}

func TestSimpleRandomStaticAndDeterministic(t *testing.T) {
	a := NewSimpleRandom(7)
	b := NewSimpleRandom(7)
	fss := fsNames(50)
	if err := a.Init(testServers, fss); err != nil {
		t.Fatal(err)
	}
	if err := b.Init(testServers, fss); err != nil {
		t.Fatal(err)
	}
	if err := a.Reconfigure(120, nil); err != nil {
		t.Fatal(err)
	}
	for _, fs := range fss {
		if a.Owner(fs) != b.Owner(fs) {
			t.Fatalf("same seed disagrees on %s", fs)
		}
	}
	c := NewSimpleRandom(8)
	if err := c.Init(testServers, fss); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for _, fs := range fss {
		if a.Owner(fs) != c.Owner(fs) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds gave identical placement")
	}
}

func TestSimpleRandomNoServers(t *testing.T) {
	if err := NewSimpleRandom(1).Init(nil, fsNames(3)); err == nil {
		t.Fatal("Init with no servers succeeded")
	}
}

func TestRoundRobinExactlyEqualCounts(t *testing.T) {
	p := NewRoundRobin()
	fss := fsNames(100)
	if err := p.Init(testServers, fss); err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, fs := range fss {
		counts[p.Owner(fs)]++
	}
	for id, c := range counts {
		if c != 20 {
			t.Fatalf("server %d got %d, want exactly 20 (round-robin)", id, c)
		}
	}
	if err := p.Reconfigure(0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinOrderIndependent(t *testing.T) {
	a, b := NewRoundRobin(), NewRoundRobin()
	fss := fsNames(20)
	rev := make([]string, len(fss))
	for i, fs := range fss {
		rev[len(fss)-1-i] = fs
	}
	if err := a.Init(testServers, fss); err != nil {
		t.Fatal(err)
	}
	if err := b.Init(testServers, rev); err != nil {
		t.Fatal(err)
	}
	for _, fs := range fss {
		if a.Owner(fs) != b.Owner(fs) {
			t.Fatalf("round-robin sensitive to input order at %s", fs)
		}
	}
}

func TestRoundRobinNoServers(t *testing.T) {
	if err := NewRoundRobin().Init(nil, fsNames(3)); err == nil {
		t.Fatal("Init with no servers succeeded")
	}
}

func speedsMap() map[int]float64 {
	return map[int]float64{0: 1, 1: 3, 2: 5, 3: 7, 4: 9}
}

func prescientTrace() *trace.Trace {
	// Two windows of 100 s. Window 0: fsA dominates. Window 1: fsB does.
	return &trace.Trace{Requests: []trace.Request{
		{At: 1, FileSet: "fsA", Work: 90},
		{At: 2, FileSet: "fsB", Work: 10},
		{At: 3, FileSet: "fsC", Work: 10},
		{At: 101, FileSet: "fsA", Work: 10},
		{At: 102, FileSet: "fsB", Work: 90},
		{At: 103, FileSet: "fsC", Work: 10},
	}}
}

func TestPrescientStartsBalanced(t *testing.T) {
	p := NewPrescient(speedsMap(), prescientTrace(), 100)
	if err := p.Init(testServers, []string{"fsA", "fsB", "fsC"}); err != nil {
		t.Fatal(err)
	}
	// The dominant file set must land on the fastest server from t=0.
	if got := p.Owner("fsA"); got != 4 {
		t.Fatalf("dominant file set on server %d, want 4 (fastest)", got)
	}
}

func TestPrescientLooksAhead(t *testing.T) {
	p := NewPrescient(speedsMap(), prescientTrace(), 100)
	if err := p.Init(testServers, []string{"fsA", "fsB", "fsC"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Reconfigure(100, nil); err != nil {
		t.Fatal(err)
	}
	// In window 1 fsB dominates; prescience puts it on the fastest server
	// before the burst happens.
	if got := p.Owner("fsB"); got != 4 {
		t.Fatalf("upcoming dominant file set on server %d, want 4", got)
	}
}

func TestPrescientIdleFileSetsStayPut(t *testing.T) {
	tr := &trace.Trace{Requests: []trace.Request{
		{At: 1, FileSet: "fsA", Work: 10},
		{At: 101, FileSet: "fsA", Work: 10},
	}}
	p := NewPrescient(speedsMap(), tr, 100)
	if err := p.Init(testServers, []string{"fsA", "fsIdle"}); err != nil {
		t.Fatal(err)
	}
	before := p.Owner("fsIdle")
	if err := p.Reconfigure(100, nil); err != nil {
		t.Fatal(err)
	}
	if p.Owner("fsIdle") != before {
		t.Fatal("idle file set moved gratuitously")
	}
}

func TestPrescientMissingSpeed(t *testing.T) {
	p := NewPrescient(map[int]float64{0: 1}, prescientTrace(), 100)
	if err := p.Init([]int{0, 1}, []string{"fsA"}); err == nil {
		t.Fatal("Init without speed for server 1 succeeded")
	}
}

func TestPrescientMembership(t *testing.T) {
	p := NewPrescient(speedsMap(), prescientTrace(), 100)
	if err := p.Init(testServers, []string{"fsA", "fsB", "fsC"}); err != nil {
		t.Fatal(err)
	}
	if err := p.ServerDown(4); err != nil {
		t.Fatal(err)
	}
	for _, fs := range []string{"fsA", "fsB", "fsC"} {
		if p.Owner(fs) == 4 {
			t.Fatalf("%s still owned by downed server", fs)
		}
	}
	if err := p.ServerDown(4); err == nil {
		t.Fatal("double ServerDown succeeded")
	}
	if err := p.ServerUp(4); err != nil {
		t.Fatal(err)
	}
	if err := p.ServerUp(4); err == nil {
		t.Fatal("double ServerUp succeeded")
	}
	if err := p.ServerUp(99); err == nil {
		t.Fatal("ServerUp without speed succeeded")
	}
}

// LPT quality: on random small instances, LPT's makespan is within 2x of
// brute-force optimal (theory: 4/3 for identical machines; heterogeneous
// greedy stays close on small instances).
func TestPrescientLPTNearOptimal(t *testing.T) {
	f := func(seed uint16) bool {
		r := newTestRand(uint64(seed))
		nFS := 3 + int(seed%5)
		weights := map[string]float64{}
		var fss []string
		reqs := []trace.Request{}
		for i := 0; i < nFS; i++ {
			fs := fmt.Sprintf("f%d", i)
			fss = append(fss, fs)
			w := 1 + r.f()*99
			weights[fs] = w
			reqs = append(reqs, trace.Request{At: float64(i) * 0.01, FileSet: fs, Work: w})
		}
		speeds := map[int]float64{0: 1, 1: 2, 2: 4}
		tr := &trace.Trace{Requests: reqs}
		p := NewPrescient(speeds, tr, 100)
		if err := p.Init([]int{0, 1, 2}, fss); err != nil {
			return false
		}
		assign := map[string]int{}
		for _, fs := range fss {
			assign[fs] = p.Owner(fs)
		}
		got := MaxCompletion(assign, weights, speeds)
		best := bruteForceOptimal(fss, weights, []int{0, 1, 2}, speeds)
		return got <= best*2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceOptimal exhaustively minimizes makespan (small instances only).
func bruteForceOptimal(fss []string, weights map[string]float64, servers []int, speeds map[int]float64) float64 {
	best := math.Inf(1)
	n := len(fss)
	assign := make([]int, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			load := map[int]float64{}
			for j, fs := range fss {
				load[servers[assign[j]]] += weights[fs]
			}
			var worst float64
			for id, l := range load {
				if c := l / speeds[id]; c > worst {
					worst = c
				}
			}
			if worst < best {
				best = worst
			}
			return
		}
		for s := range servers {
			assign[i] = s
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// minimal deterministic float source for the quick test above.
type testRand struct{ x uint64 }

func newTestRand(seed uint64) *testRand { return &testRand{x: seed*2654435761 + 1} }
func (t *testRand) f() float64 {
	t.x ^= t.x << 13
	t.x ^= t.x >> 7
	t.x ^= t.x << 17
	return float64(t.x>>11) / (1 << 53)
}

func TestANUPolicyAdapters(t *testing.T) {
	p := NewANU(core.Defaults())
	if err := p.Init(testServers, fsNames(10)); err != nil {
		t.Fatal(err)
	}
	if p.Name() != "anu" {
		t.Fatalf("Name = %q", p.Name())
	}
	id := p.Owner("fs001")
	found := false
	for _, s := range testServers {
		if s == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("Owner returned non-server %d", id)
	}
	reports := []Report{
		{ServerID: 0, MeanLatency: 500, Requests: 10},
		{ServerID: 1, MeanLatency: 10, Requests: 10},
		{ServerID: 2, MeanLatency: 10, Requests: 10},
		{ServerID: 3, MeanLatency: 10, Requests: 10},
		{ServerID: 4, MeanLatency: 10, Requests: 10},
	}
	if err := p.Reconfigure(120, reports); err != nil {
		t.Fatal(err)
	}
	if p.LastUpdate.Aggregate == 0 {
		t.Fatal("LastUpdate not populated")
	}
	if err := p.ServerDown(0); err != nil {
		t.Fatal(err)
	}
	if err := p.ServerUp(0); err != nil {
		t.Fatal(err)
	}
	if p.Mapper().NumServers() != 5 {
		t.Fatalf("NumServers = %d after down+up, want 5", p.Mapper().NumServers())
	}
}

// TestANUDelegateFailoverSkipsDivergentRound holds the failover rule of
// §4/§6: the delegate is the lowest live server, and when it changes the
// next round has no history, so divergent tuning is skipped and the other
// rules act. Every case runs the same two rounds — a hot and a cold server,
// then both converging toward the average — around one membership change.
// With history, the second round is "convergent" and tunes nothing.
func TestANUDelegateFailoverSkipsDivergentRound(t *testing.T) {
	cases := []struct {
		name      string
		servers   []int
		hot, cold int
		change    func(*ANU) error
		wantTuned bool
	}{
		{"delegate down", []int{0, 1, 2}, 1, 2, func(p *ANU) error { return p.ServerDown(0) }, true},
		{"other server down", []int{0, 1, 2}, 0, 1, func(p *ANU) error { return p.ServerDown(2) }, false},
		{"new lowest up", []int{1, 2, 3}, 1, 2, func(p *ANU) error { return p.ServerUp(0) }, true},
		{"higher id up", []int{0, 1, 2}, 0, 1, func(p *ANU) error { return p.ServerUp(5) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Defaults()
			cfg.Tuning = core.Tuning{Divergent: true}
			p := NewANU(cfg)
			if err := p.Init(tc.servers, nil); err != nil {
				t.Fatal(err)
			}
			// round reports hot and cold at the given latencies and every
			// other live server at the average, (hot+cold)/2, so only the
			// hot and cold servers are candidates for tuning.
			round := func(hot, cold float64) {
				t.Helper()
				var reports []Report
				for _, id := range p.Mapper().Servers() {
					lat := (hot + cold) / 2
					switch id {
					case tc.hot:
						lat = hot
					case tc.cold:
						lat = cold
					}
					reports = append(reports, Report{ServerID: id, MeanLatency: lat, Requests: 50})
				}
				if err := p.Reconfigure(0, reports); err != nil {
					t.Fatal(err)
				}
			}
			round(200, 50)
			if err := tc.change(p); err != nil {
				t.Fatal(err)
			}
			round(150, 80)
			if p.LastUpdate.Tuned != tc.wantTuned {
				t.Fatalf("round after the change tuned = %v, want %v (decisions %+v)",
					p.LastUpdate.Tuned, tc.wantTuned, p.LastUpdate.Decisions)
			}
		})
	}
}

func TestPairwiseANUPolicy(t *testing.T) {
	p := NewPairwiseANU(core.Defaults(), 3)
	if err := p.Init(testServers, nil); err != nil {
		t.Fatal(err)
	}
	if p.Name() != "anu-pairwise" {
		t.Fatalf("Name = %q", p.Name())
	}
	reports := []Report{
		{ServerID: 0, MeanLatency: 500, Requests: 10},
		{ServerID: 1, MeanLatency: 10, Requests: 10},
	}
	if err := p.Reconfigure(120, reports); err != nil {
		t.Fatal(err)
	}
	if err := p.ServerDown(2); err != nil {
		t.Fatal(err)
	}
	if err := p.ServerUp(2); err != nil {
		t.Fatal(err)
	}
	if got := p.Owner("anything"); got < 0 {
		t.Fatalf("Owner = %d", got)
	}
}

// Interface conformance checks.
var (
	_ Policy            = (*SimpleRandom)(nil)
	_ Policy            = (*RoundRobin)(nil)
	_ Policy            = (*Prescient)(nil)
	_ Policy            = (*ANU)(nil)
	_ Policy            = (*PairwiseANU)(nil)
	_ MembershipHandler = (*Prescient)(nil)
	_ MembershipHandler = (*ANU)(nil)
	_ MembershipHandler = (*PairwiseANU)(nil)
)

func TestStaticNonUniformSharesFollowSpeeds(t *testing.T) {
	p := NewStaticNonUniform(core.Defaults(), speedsMap())
	fss := fsNames(2000)
	if err := p.Init(testServers, fss); err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, fs := range fss {
		counts[p.Owner(fs)]++
	}
	// File-set counts must be ordered by speed: the speed-9 server owns the
	// largest region, the speed-1 server the smallest.
	if !(counts[4] > counts[2] && counts[2] > counts[0]) {
		t.Fatalf("counts not speed-ordered: %v", counts)
	}
	want9 := float64(len(fss)) * 9 / 25
	if math.Abs(float64(counts[4])-want9) > 0.2*want9 {
		t.Fatalf("speed-9 server owns %d file sets, want ~%.0f", counts[4], want9)
	}
	// Static: reconfigure must not move anything.
	before := map[string]int{}
	for _, fs := range fss {
		before[fs] = p.Owner(fs)
	}
	if err := p.Reconfigure(120, nil); err != nil {
		t.Fatal(err)
	}
	for _, fs := range fss {
		if p.Owner(fs) != before[fs] {
			t.Fatalf("static policy moved %s", fs)
		}
	}
}

func TestStaticNonUniformMissingSpeed(t *testing.T) {
	p := NewStaticNonUniform(core.Defaults(), map[int]float64{0: 1})
	if err := p.Init([]int{0, 1}, nil); err == nil {
		t.Fatal("missing speed accepted")
	}
}

var _ Policy = (*StaticNonUniform)(nil)

func TestRescaleBySpeed(t *testing.T) {
	m, err := core.NewMapper(core.Defaults(), []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	speeds := map[int]float64{0: 1, 1: 1, 2: 3}
	if err := RescaleBySpeed(m, func(id int) float64 { return speeds[id] }); err != nil {
		t.Fatal(err)
	}
	shares := m.Shares()
	var sum uint64
	for _, s := range shares {
		sum += s
	}
	if sum != interval.Half {
		t.Fatalf("shares sum to %d, want Half = %d", sum, uint64(interval.Half))
	}
	if shares[0] != shares[1] || math.Abs(float64(shares[2])/float64(shares[0])-3) > 1e-9 {
		t.Fatalf("shares %v not proportional to speeds %v", shares, speeds)
	}
	for _, bad := range []float64{0, -1, math.NaN()} {
		speeds[1] = bad
		if err := RescaleBySpeed(m, func(id int) float64 { return speeds[id] }); err == nil {
			t.Fatalf("speed %v accepted", bad)
		}
		if got := m.Shares(); got[1] != shares[1] {
			t.Fatalf("refused rescale changed shares: %v, was %v", got, shares)
		}
	}
}
