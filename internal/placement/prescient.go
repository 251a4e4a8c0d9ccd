package placement

import (
	"fmt"
	"sort"

	"anufs/internal/trace"
)

// Prescient is the paper's dynamic prescient bin-packing baseline (§7): it
// "knows the processing capabilities of each server and the workload
// characteristics of each file set", and before each interval it "looks
// forward into the trace, identifying the best load balance before the
// workload occurs". It provides the upper bound ANU is compared against.
//
// The permutation that exactly minimizes load skew is NP-hard at 500 file
// sets, so we use the standard LPT (longest processing time first) greedy
// on heterogeneous machines — assign file sets in decreasing workload to
// the server whose completion time (load+w)/speed is minimized. Like the
// paper's prescient, it starts balanced at t = 0 and may permute any file
// set each interval; to avoid gratuitous churn, file sets with zero
// upcoming work keep their current owner.
type Prescient struct {
	speeds map[int]float64
	tr     *trace.Trace
	window float64
	alive  []int
	owner  map[string]int
	all    []string
	// Hysteresis: adopt a fresh packing only when it beats the current
	// assignment's upcoming makespan by this factor. This matches the
	// paper's observed behaviour — "the prescient policy retains the same
	// configuration for the duration of the experiment, because the
	// workload for each file set does not vary with time" (§7) — which a
	// scratch repack every window would not reproduce (Poisson noise would
	// permute ties and thrash). 0 disables repacking after Init; the
	// default 0.8 repacks on real workload shifts only.
	Hysteresis float64
	initDone   bool
}

// NewPrescient creates the baseline. speeds maps server ID to relative
// processing power, tr is the full future trace (prescience), and window is
// the reconfiguration interval in seconds.
func NewPrescient(speeds map[int]float64, tr *trace.Trace, window float64) *Prescient {
	return &Prescient{speeds: speeds, tr: tr, window: window, Hysteresis: 0.8}
}

// Name implements Policy.
func (p *Prescient) Name() string { return "prescient" }

// Init implements Policy: packs for the first window so the system starts
// in a load-balanced state (§7: "having perfect knowledge, the prescient
// algorithm begins in a load-balanced state at time 0").
func (p *Prescient) Init(servers []int, fileSets []string) error {
	if len(servers) == 0 {
		return fmt.Errorf("placement: no servers")
	}
	for _, id := range servers {
		if p.speeds[id] <= 0 {
			return fmt.Errorf("placement: prescient missing speed for server %d", id)
		}
	}
	p.alive = append([]int(nil), servers...)
	sort.Ints(p.alive)
	p.all = append([]string(nil), fileSets...)
	sort.Strings(p.all)
	p.owner = make(map[string]int, len(p.all))
	p.pack(0)
	return nil
}

// Owner implements Policy.
func (p *Prescient) Owner(fileSet string) int { return p.owner[fileSet] }

// Reconfigure implements Policy: repack for the upcoming window.
func (p *Prescient) Reconfigure(now float64, _ []Report) error {
	p.pack(now)
	return nil
}

// ServerDown implements MembershipHandler.
func (p *Prescient) ServerDown(id int) error {
	for i, s := range p.alive {
		if s == id {
			p.alive = append(p.alive[:i], p.alive[i+1:]...)
			// Repack immediately: orphaned file sets need owners. We do not
			// know "now" here; owners of dead servers are fixed lazily by
			// the next pack, so pack over an empty window keeping current
			// owners where possible.
			p.packWeights(map[string]float64{})
			return nil
		}
	}
	return fmt.Errorf("placement: prescient: unknown server %d", id)
}

// ServerUp implements MembershipHandler.
func (p *Prescient) ServerUp(id int) error {
	if p.speeds[id] <= 0 {
		return fmt.Errorf("placement: prescient missing speed for server %d", id)
	}
	for _, s := range p.alive {
		if s == id {
			return fmt.Errorf("placement: prescient: server %d already up", id)
		}
	}
	p.alive = append(p.alive, id)
	sort.Ints(p.alive)
	return nil
}

// pack runs LPT over the work each file set presents in [now, now+window).
// After Init, a fresh packing is adopted only when it improves the upcoming
// makespan by the hysteresis factor (see the field comment).
func (p *Prescient) pack(now float64) {
	weights := p.tr.WorkByFileSetInWindow(now, now+p.window)
	if p.initDone {
		if p.Hysteresis <= 0 {
			p.fixOrphans(weights)
			return
		}
		cur := MaxCompletion(p.owner, weights, p.speeds)
		trial := p.cloneForTrial()
		trial.packWeights(weights)
		if MaxCompletion(trial.owner, weights, p.speeds) >= p.Hysteresis*cur {
			p.fixOrphans(weights)
			return
		}
		p.owner = trial.owner
		return
	}
	p.packWeights(weights)
	p.initDone = true
}

func (p *Prescient) cloneForTrial() *Prescient {
	cp := &Prescient{
		speeds: p.speeds,
		tr:     p.tr,
		window: p.window,
		alive:  p.alive,
		all:    p.all,
		owner:  make(map[string]int, len(p.owner)),
	}
	for fs, id := range p.owner {
		cp.owner[fs] = id
	}
	return cp
}

// fixOrphans reassigns file sets whose owner is no longer alive without
// otherwise disturbing the assignment.
func (p *Prescient) fixOrphans(weights map[string]float64) {
	aliveSet := make(map[int]bool, len(p.alive))
	for _, id := range p.alive {
		aliveSet[id] = true
	}
	// Accumulate in the sorted p.all order, not map order: float addition
	// is not associative, and an ULP of difference in load can flip a
	// near-tie placement between runs.
	load := map[int]float64{}
	for _, fs := range p.all {
		if id, ok := p.owner[fs]; ok && aliveSet[id] {
			load[id] += weights[fs]
		}
	}
	for _, fs := range p.all {
		if aliveSet[p.owner[fs]] {
			continue
		}
		best, bestCost := -1, 0.0
		for _, id := range p.alive {
			cost := (load[id] + weights[fs]) / p.speeds[id]
			if best == -1 || cost < bestCost {
				best, bestCost = id, cost
			}
		}
		p.owner[fs] = best
		load[best] += weights[fs]
	}
}

func (p *Prescient) packWeights(weights map[string]float64) {
	type item struct {
		fs string
		w  float64
	}
	items := make([]item, 0, len(weights))
	for _, fs := range p.all {
		if w := weights[fs]; w > 0 {
			items = append(items, item{fs, w})
		}
	}
	// LPT: heaviest first; ties broken by name for determinism.
	sort.Slice(items, func(a, b int) bool {
		if items[a].w != items[b].w {
			return items[a].w > items[b].w
		}
		return items[a].fs < items[b].fs
	})
	load := make(map[int]float64, len(p.alive))
	aliveSet := make(map[int]bool, len(p.alive))
	for _, id := range p.alive {
		aliveSet[id] = true
	}
	for _, it := range items {
		best, bestCost := -1, 0.0
		for _, id := range p.alive {
			cost := (load[id] + it.w) / p.speeds[id]
			if best == -1 || cost < bestCost {
				best, bestCost = id, cost
			}
		}
		p.owner[it.fs] = best
		load[best] += it.w
	}
	// Idle file sets keep their owner unless it is gone (failure), in which
	// case they go to the least-loaded-per-speed live server.
	for _, fs := range p.all {
		if weights[fs] > 0 {
			continue
		}
		if cur, ok := p.owner[fs]; ok && aliveSet[cur] {
			continue
		}
		best, bestCost := -1, 0.0
		for _, id := range p.alive {
			cost := load[id] / p.speeds[id]
			if best == -1 || cost < bestCost {
				best, bestCost = id, cost
			}
		}
		p.owner[fs] = best
	}
}

// MaxCompletion returns max over servers of load/speed for a hypothetical
// weight assignment — exported for tests comparing LPT against optimal.
func MaxCompletion(assign map[string]int, weights map[string]float64, speeds map[int]float64) float64 {
	// Sum in sorted key order: float accumulation in map order is not
	// reproducible across runs.
	sets := make([]string, 0, len(assign))
	for fs := range assign {
		sets = append(sets, fs)
	}
	sort.Strings(sets)
	load := map[int]float64{}
	for _, fs := range sets {
		load[assign[fs]] += weights[fs]
	}
	var worst float64
	for id, l := range load {
		if c := l / speeds[id]; c > worst {
			worst = c
		}
	}
	return worst
}
