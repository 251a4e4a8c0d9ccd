package core

import (
	"fmt"
	"math"
	"sort"

	"anufs/internal/interval"
)

// LatencyReport is one server's measurement for the elapsed interval: the
// mean latency of the requests it completed and how many there were. A
// server that completed nothing reports {Requests: 0}, which the delegate
// treats as an idle (zero-latency) server.
type LatencyReport struct {
	ServerID    int
	MeanLatency float64 // in any consistent time unit; the delegate only compares
	Requests    int
}

// Decision explains what the delegate did to one server in an update.
type Decision struct {
	ServerID int
	Latency  float64
	Factor   float64 // applied scale factor before renormalization (1 = untouched)
	Reason   string  // which rule produced the factor
}

// UpdateResult summarizes one delegate round.
type UpdateResult struct {
	Aggregate float64
	Decisions []Decision
	// Before is the share vector the round started from (fixed-point units,
	// Σ = Half) — old region widths for the tuner decision log.
	Before map[int]uint64
	// Targets is the share vector installed (fixed-point units, Σ = Half).
	Targets map[int]uint64
	// ChangedMass is the interval measure that changed owner — the load-
	// movement cost of this round in interval terms.
	ChangedMass uint64
	// Tuned reports whether any region was actually rescaled.
	Tuned bool
}

// Delegate implements the elected delegate server's rescaling protocol
// (paper §4, §6). The protocol is stateless — a failover delegate computes
// the same update from the same reports — except for divergent tuning,
// which compares against the previous interval's latencies; NewDelegate or
// ResetState models a delegate crash, after which divergent tuning is
// skipped for one interval exactly as the paper prescribes.
type Delegate struct {
	cfg  Config
	prev map[int]float64 // last interval's latency per server (divergent tuning)
}

// NewDelegate creates a delegate with the given configuration.
func NewDelegate(cfg Config) *Delegate {
	return &Delegate{cfg: cfg.withDefaults()}
}

// ResetState models delegate failover: the replacement has no memory of the
// previous interval, so divergent tuning cannot be evaluated next round.
func (d *Delegate) ResetState() { d.prev = nil }

// Aggregate condenses the reports into the system "average" latency per the
// configured aggregator. Servers that completed no requests are excluded —
// an idle server's zero would drag a weighted mean to meaninglessness.
func (d *Delegate) Aggregate(reports []LatencyReport) float64 {
	switch d.cfg.Aggregator {
	case Median:
		var ls []float64
		for _, r := range reports {
			if r.Requests > 0 {
				ls = append(ls, r.MeanLatency)
			}
		}
		if len(ls) == 0 {
			return 0
		}
		sort.Float64s(ls)
		mid := len(ls) / 2
		if len(ls)%2 == 1 {
			return ls[mid]
		}
		return (ls[mid-1] + ls[mid]) / 2
	case Mean:
		var sum float64
		n := 0
		for _, r := range reports {
			if r.Requests > 0 {
				sum += r.MeanLatency
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	default: // WeightedMean
		var num, den float64
		for _, r := range reports {
			if r.Requests > 0 {
				num += r.MeanLatency * float64(r.Requests)
				den += float64(r.Requests)
			}
		}
		if den == 0 {
			return 0
		}
		return num / den
	}
}

// Update runs one delegate round: aggregate the reports, choose per-server
// scale factors under the enabled heuristics, renormalize to half occupancy
// and install the new mapping into m. It returns the decisions for
// observability. Reports must cover a subset of m's live servers; servers
// without a report are treated as idle.
func (d *Delegate) Update(m *Mapper, reports []LatencyReport) (UpdateResult, error) {
	res := UpdateResult{}

	lat := make(map[int]float64, len(reports))
	reqs := make(map[int]int, len(reports))
	for _, r := range reports {
		if _, ok := m.iv.Share(r.ServerID); !ok {
			return res, fmt.Errorf("core: report from unknown server %d", r.ServerID)
		}
		lat[r.ServerID] = r.MeanLatency
		reqs[r.ServerID] = r.Requests
	}

	a := d.Aggregate(reports)
	res.Aggregate = a

	servers := m.Servers()
	cur := m.Shares()
	res.Before = cur
	factors := make(map[int]float64, len(servers))
	for _, id := range servers {
		dec := Decision{ServerID: id, Latency: lat[id], Factor: 1, Reason: "untouched"}
		factors[id] = 1
		if a > 0 {
			f, reason := d.factorFor(id, lat[id], reqs[id], a)
			dec.Factor, dec.Reason = f, reason
			factors[id] = f
		} else {
			dec.Reason = "no-traffic"
		}
		res.Decisions = append(res.Decisions, dec)
	}

	// Remember this interval's latencies for divergent tuning next round.
	d.prev = lat

	tuned := false
	for _, f := range factors {
		if f != 1 {
			tuned = true
			break
		}
	}
	if !tuned {
		res.Targets = cur
		return res, nil
	}

	// Desired masses before renormalization. A zero-share server that wants
	// to grow is seeded (multiplying zero would pin it at zero forever).
	seed := d.seedShare(m)
	desired := make([]float64, len(servers))
	for i, id := range servers {
		w := float64(cur[id]) * factors[id]
		if cur[id] == 0 && factors[id] > 1 {
			w = float64(seed)
		}
		desired[i] = w
	}
	// Renormalize to exactly Half: this is the implicit growth mechanism —
	// shrinking one region proportionally inflates all others (paper §6).
	q := interval.QuantizeShares(desired, interval.Half)
	target := make(map[int]uint64, len(servers))
	for i, id := range servers {
		target[id] = q[i]
	}

	before := m.iv.Clone()
	if err := m.Rescale(target); err != nil {
		return res, err
	}
	res.Targets = target
	res.ChangedMass = interval.ChangedMass(before, m.iv)
	res.Tuned = res.ChangedMass > 0
	return res, nil
}

// factorFor applies the tuning heuristics to one server and returns the
// scale factor plus the rule that produced it.
func (d *Delegate) factorFor(id int, l float64, requests int, a float64) (float64, string) {
	cfg := d.cfg
	t := 0.0
	if cfg.Tuning.Thresholding || cfg.Tuning.TopOff {
		t = cfg.Threshold
	}
	hi := (1 + t) * a
	lo := (1 - t) * a

	overloaded := l > hi
	underloaded := l < lo

	if cfg.Tuning.TopOff {
		// Top-off tuning: only cut latency peaks; never explicitly grow.
		// The threshold interval becomes (-inf, (1+t)·A] (paper §6).
		underloaded = false
	}
	if !overloaded && !underloaded {
		return 1, "within-threshold"
	}

	if cfg.Tuning.Divergent {
		prev, known := d.prev[id]
		if !known {
			// Delegate failover or first interval: the paper ignores the
			// policy when divergence cannot be evaluated — i.e. the other
			// rules proceed unconstrained.
		} else {
			divergingUp := l > a && l >= prev
			divergingDown := l < a && l <= prev
			if !divergingUp && !divergingDown {
				return 1, "convergent"
			}
		}
	}

	var f float64
	if l <= 0 {
		// Idle server below the average: grows at the clamp.
		f = cfg.Gamma
	} else {
		f = a / l
		f = math.Max(1/cfg.Gamma, math.Min(cfg.Gamma, f))
	}
	if overloaded {
		return f, "shed-overload"
	}
	return f, "grow-underload"
}

// seedShare is the mass granted to a zero-share server that should grow.
func (d *Delegate) seedShare(m *Mapper) uint64 {
	if d.cfg.SeedShareFrac > 0 {
		return uint64(d.cfg.SeedShareFrac * float64(interval.Whole))
	}
	return interval.Whole / uint64(m.Partitions())
}
