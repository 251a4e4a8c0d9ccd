// Package placement defines the load-placement policy interface the cluster
// simulator drives, and implements the four policies the paper compares
// (§7): simple randomization, round-robin, dynamic prescient bin-packing,
// and ANU randomization (plus the pairwise decentralized ANU variant from
// §5's future work).
package placement

import (
	"fmt"
	"sort"
	"sync/atomic"

	"anufs/internal/core"
	"anufs/internal/hashfam"
)

// tunerLog, when set, receives every ANU delegate round for structured
// logging (anusim -tuner-log). A package-level sink keeps the Policy
// interface unchanged for the dozens of experiment constructions; it is
// nil in normal runs, so deterministic experiments are unaffected.
var tunerLog atomic.Value // of tunerLogFn

type tunerLogFn func(policy string, now float64, res core.UpdateResult)

// SetTunerLog installs a sink for delegate-round events from every ANU
// policy instance in the process (pass nil to disable). The sink must be
// fast; it runs inline in Reconfigure.
func SetTunerLog(fn func(policy string, now float64, res core.UpdateResult)) {
	tunerLog.Store(tunerLogFn(fn))
}

func logTunerRound(policy string, now float64, res core.UpdateResult) {
	if fn, _ := tunerLog.Load().(tunerLogFn); fn != nil {
		fn(policy, now, res)
	}
}

// Report is a per-server latency measurement for the elapsed interval.
type Report = core.LatencyReport

// Policy decides which server owns each file set. The cluster simulator
// calls Init once, then Owner to route every request, and Reconfigure at
// each measurement-interval boundary. Implementations must be
// deterministic for a fixed construction seed.
type Policy interface {
	// Name identifies the policy in results ("anu", "prescient", …).
	Name() string
	// Init installs the initial configuration for the given servers (sorted
	// ascending) and file sets.
	Init(servers []int, fileSets []string) error
	// Owner returns the server currently responsible for the file set.
	Owner(fileSet string) int
	// Reconfigure lets dynamic policies react to the elapsed interval's
	// latency reports at time now. Static policies ignore it.
	Reconfigure(now float64, reports []Report) error
}

// MembershipHandler is implemented by policies that support servers
// failing, recovering, or being commissioned at runtime.
type MembershipHandler interface {
	ServerDown(id int) error
	ServerUp(id int) error
}

// ---------------------------------------------------------------------------
// Simple randomization: each file set is hashed to a uniformly random
// server, once, statically (§7). No knowledge of heterogeneity.

// SimpleRandom is the paper's "simple randomization" baseline.
type SimpleRandom struct {
	seed  uint64
	fam   *hashfam.Family
	owner map[string]int
}

// NewSimpleRandom creates the baseline with a placement seed.
func NewSimpleRandom(seed uint64) *SimpleRandom {
	return &SimpleRandom{seed: seed}
}

// Name implements Policy.
func (p *SimpleRandom) Name() string { return "simple-random" }

// Init implements Policy.
func (p *SimpleRandom) Init(servers []int, fileSets []string) error {
	if len(servers) == 0 {
		return fmt.Errorf("placement: no servers")
	}
	p.fam = hashfam.New(p.seed, 0)
	p.owner = make(map[string]int, len(fileSets))
	for _, fs := range fileSets {
		p.owner[fs] = servers[p.fam.Fallback(fs, len(servers))]
	}
	return nil
}

// Owner implements Policy.
func (p *SimpleRandom) Owner(fileSet string) int { return p.owner[fileSet] }

// Reconfigure implements Policy; the policy is static.
func (p *SimpleRandom) Reconfigure(float64, []Report) error { return nil }

// ---------------------------------------------------------------------------
// Round-robin: the same number of file sets on every server (§7).

// RoundRobin is the paper's round-robin baseline.
type RoundRobin struct {
	owner map[string]int
}

// NewRoundRobin creates the baseline.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Init implements Policy.
func (p *RoundRobin) Init(servers []int, fileSets []string) error {
	if len(servers) == 0 {
		return fmt.Errorf("placement: no servers")
	}
	sorted := append([]string(nil), fileSets...)
	sort.Strings(sorted)
	p.owner = make(map[string]int, len(sorted))
	for i, fs := range sorted {
		p.owner[fs] = servers[i%len(servers)]
	}
	return nil
}

// Owner implements Policy.
func (p *RoundRobin) Owner(fileSet string) int { return p.owner[fileSet] }

// Reconfigure implements Policy; the policy is static.
func (p *RoundRobin) Reconfigure(float64, []Report) error { return nil }

// ---------------------------------------------------------------------------
// ANU randomization: the paper's contribution, adapted to the Policy
// interface by wrapping core.Mapper + core.Delegate.

// ANU wraps the core algorithm as a placement policy.
type ANU struct {
	cfg      core.Config
	mapper   *core.Mapper
	delegate *core.Delegate
	// LastUpdate captures the most recent delegate round for observability.
	LastUpdate core.UpdateResult
}

// NewANU creates the ANU policy with the given core configuration.
func NewANU(cfg core.Config) *ANU { return &ANU{cfg: cfg} }

// Name implements Policy.
func (p *ANU) Name() string { return "anu" }

// Init implements Policy. ANU ignores the file-set list: placement is pure
// hashing, which is exactly its scalability property (§5).
func (p *ANU) Init(servers []int, _ []string) error {
	m, err := core.NewMapper(p.cfg, servers)
	if err != nil {
		return err
	}
	p.mapper = m
	p.delegate = core.NewDelegate(p.cfg)
	return nil
}

// Owner implements Policy.
func (p *ANU) Owner(fileSet string) int { return p.mapper.Owner(fileSet) }

// Reconfigure implements Policy: one delegate round.
func (p *ANU) Reconfigure(now float64, reports []Report) error {
	res, err := p.delegate.Update(p.mapper, reports)
	if err != nil {
		return err
	}
	p.LastUpdate = res
	logTunerRound(p.Name(), now, res)
	return nil
}

// ServerDown implements MembershipHandler. Losing the delegate resets the
// divergent-tuning history (see delegateID).
func (p *ANU) ServerDown(id int) error {
	wasDelegate := id == p.delegateID()
	if err := p.mapper.RemoveServer(id); err != nil {
		return err
	}
	if wasDelegate {
		p.delegate.ResetState()
	}
	return nil
}

// ServerUp implements MembershipHandler. A server that joins below every
// live one becomes the delegate and starts without history.
func (p *ANU) ServerUp(id int) error {
	if err := p.mapper.AddServer(id, 0); err != nil {
		return err
	}
	if id == p.delegateID() {
		p.delegate.ResetState()
	}
	return nil
}

// delegateID returns the server that runs the delegate round: the lowest
// live one, as internal/election elects it (§4). A server that takes over
// as delegate has no memory of the previous interval, so its first round
// skips divergent tuning (§6).
func (p *ANU) delegateID() int { return p.mapper.Servers()[0] }

// Mapper exposes the underlying mapper for inspection.
func (p *ANU) Mapper() *core.Mapper { return p.mapper }

// ---------------------------------------------------------------------------
// Pairwise ANU: the decentralized variant (§5 future work).

// PairwiseANU tunes by pairwise exchanges instead of a central delegate.
type PairwiseANU struct {
	cfg    core.Config
	seed   uint64
	mapper *core.Mapper
	tuner  *core.PairwiseTuner
	// RoundsPerInterval controls how many pairwise rounds run per
	// reconfiguration; more rounds ≈ faster convergence, more movement.
	RoundsPerInterval int
}

// NewPairwiseANU creates the decentralized policy.
func NewPairwiseANU(cfg core.Config, seed uint64) *PairwiseANU {
	return &PairwiseANU{cfg: cfg, seed: seed, RoundsPerInterval: 2}
}

// Name implements Policy.
func (p *PairwiseANU) Name() string { return "anu-pairwise" }

// Init implements Policy.
func (p *PairwiseANU) Init(servers []int, _ []string) error {
	m, err := core.NewMapper(p.cfg, servers)
	if err != nil {
		return err
	}
	p.mapper = m
	p.tuner = core.NewPairwiseTuner(p.cfg, p.seed)
	return nil
}

// Owner implements Policy.
func (p *PairwiseANU) Owner(fileSet string) int { return p.mapper.Owner(fileSet) }

// Reconfigure implements Policy.
func (p *PairwiseANU) Reconfigure(_ float64, reports []Report) error {
	for i := 0; i < p.RoundsPerInterval; i++ {
		if _, err := p.tuner.Round(p.mapper, reports); err != nil {
			return err
		}
	}
	return nil
}

// ServerDown implements MembershipHandler.
func (p *PairwiseANU) ServerDown(id int) error { return p.mapper.RemoveServer(id) }

// ServerUp implements MembershipHandler.
func (p *PairwiseANU) ServerUp(id int) error { return p.mapper.AddServer(id, 0) }
