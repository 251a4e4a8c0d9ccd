package placement

import (
	"fmt"

	"anufs/internal/core"
	"anufs/internal/interval"
)

// StaticNonUniform is a SIEVE-style baseline: the hash-based placement of
// ANU with mapped regions fixed proportional to *known* server capacities,
// and no runtime adaptation. Brinkmann et al.'s SIEVE — the strategy ANU
// is derived from (paper §4) — targets known, non-uniform capacities; this
// policy isolates what ANU's *adaptivity* adds on top of capacity-aware
// hashing: a static capacity-proportional mapping handles server
// heterogeneity but cannot respond to workload heterogeneity (a heavy file
// set landing on a small region still swamps its server) or to workload
// shifts over time.
type StaticNonUniform struct {
	cfg    core.Config
	speeds map[int]float64
	mapper *core.Mapper
}

// NewStaticNonUniform creates the baseline with a-priori capacity
// knowledge (something ANU itself never needs).
func NewStaticNonUniform(cfg core.Config, speeds map[int]float64) *StaticNonUniform {
	return &StaticNonUniform{cfg: cfg, speeds: speeds}
}

// Name implements Policy.
func (p *StaticNonUniform) Name() string { return "static-nonuniform" }

// Init implements Policy: one capacity-proportional rescale, then frozen.
func (p *StaticNonUniform) Init(servers []int, _ []string) error {
	m, err := core.NewMapper(p.cfg, servers)
	if err != nil {
		return err
	}
	if err := RescaleBySpeed(m, func(id int) float64 { return p.speeds[id] }); err != nil {
		return err
	}
	p.mapper = m
	return nil
}

// Owner implements Policy.
func (p *StaticNonUniform) Owner(fileSet string) int { return p.mapper.Owner(fileSet) }

// Reconfigure implements Policy; the policy never adapts.
func (p *StaticNonUniform) Reconfigure(float64, []Report) error { return nil }

// RescaleBySpeed sets the mapper's shares proportional to each live
// server's speed — the capacity-proportional mapping SIEVE holds fixed and
// a fleet starts from. Every speed must be > 0 (NaN is refused, not turned
// into garbage shares); the shares sum exactly to interval.Half
// (largest-remainder rounding).
func RescaleBySpeed(m *core.Mapper, speed func(id int) float64) error {
	ids := m.Servers()
	weights := make([]float64, len(ids))
	for i, id := range ids {
		weights[i] = speed(id)
		if !(weights[i] > 0) {
			return fmt.Errorf("placement: server %d speed %v must be > 0", id, weights[i])
		}
	}
	q := interval.QuantizeShares(weights, interval.Half)
	target := make(map[int]uint64, len(ids))
	for i, id := range ids {
		target[id] = q[i]
	}
	return m.Rescale(target)
}
