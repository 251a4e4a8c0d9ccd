// Package obs is the shared observability layer for the live anufs stack:
// named atomic counters, lock-free log-bucketed latency histograms, a
// bounded ring of request trace spans, a structured tuner decision log, and
// a Prometheus-text / pprof HTTP surface.
//
// One Registry is threaded through the daemon — the wire server, the live
// cluster's owner queues, the journal's group committer — so every layer
// records into the same counter table, rings and histogram set and a single
// /metrics scrape (or the wire "trace"/"tuner-log" ops) sees the whole
// request path. The paper's feedback loop runs on one signal (per-server mean
// latency, §4); this package is how we see everything that signal hides:
// tail latency per op, queue wait vs. apply vs. fsync, and why the tuner
// rescaled a region.
package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Gauge is one exported point-in-time value (per-server share, queue
// depth, ...). Labels is a preformatted Prometheus label string without
// braces (`server="3"`), or empty.
type Gauge struct {
	Name   string
	Labels string
	Value  float64
}

// Registry aggregates every observability source in one process.
type Registry struct {
	// Hist holds the latency histograms (per wire op, per server, journal).
	Hist *HistogramSet
	// Spans retains the most recent request trace spans.
	Spans *SpanRing
	// Tuner retains the most recent tuner decision events.
	Tuner *TunerRing
	// Slow is the flight recorder: traces promoted for exceeding the slow
	// threshold, durable past span-ring wraparound.
	Slow *SlowRing

	traceID atomic.Uint64
	seed    uint64 // random per-process offset making IDs fleet-unique
	node    atomic.Value

	counters sync.Map // name → *Counter

	mu     sync.Mutex
	gauges []*gaugeSource
	status map[string]func() any
}

// gaugeSource is one AddGauges registration; its address is its identity,
// so the remover can find it again.
type gaugeSource struct{ fn func() []Gauge }

// Counter is one named 64-bit value in a Registry: a monotonic count (Add),
// a last-value gauge (Set) or a high-water mark (Max). Resolve the handle
// once, at construction, and add on the event: the hot path is then one
// atomic add with no name lookup.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Set overwrites the counter — for gauges like "last recovery time".
func (c *Counter) Set(v int64) { c.v.Store(v) }

// Max raises the counter to v if v is larger — for high-water marks like
// "largest group-commit batch".
func (c *Counter) Max(v int64) {
	for cur := c.v.Load(); v > cur; cur = c.v.Load() {
		if c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the counter's current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Counter returns the counter registered under name, creating it at zero
// on first use; a hit takes no lock. Every holder of a name shares one
// counter, so two instances of a component on one registry sum. A nil
// registry hands out a detached counter nobody exports, so a component
// built without one counts the same way at no further cost.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return new(Counter)
	}
	if c, ok := r.counters.Load(name); ok {
		return c.(*Counter)
	}
	c, _ := r.counters.LoadOrStore(name, new(Counter))
	return c.(*Counter)
}

// Default ring capacities: enough history to inspect recent behaviour
// without unbounded growth.
const (
	defaultSpanCap  = 8192
	defaultTunerCap = 1024
	defaultSlowCap  = 128
)

// New creates a registry with default ring capacities.
func New() *Registry {
	r := &Registry{
		Hist:  NewHistogramSet(),
		Spans: NewSpanRing(defaultSpanCap),
		Tuner: NewTunerRing(defaultTunerCap),
		Slow:  NewSlowRing(defaultSlowCap),
	}
	// Offset the ID counter by a random per-process seed so trace IDs
	// minted on different nodes of a fleet don't collide. Each process
	// still mints sequential IDs within its own 2^64 window; crypto/rand
	// failure (no entropy device) degrades to process-local uniqueness.
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		r.seed = binary.LittleEndian.Uint64(b[:])
	}
	return r
}

// NextTraceID mints a fleet-unique request trace ID (never zero — zero
// means "untraced" throughout the stack).
func (r *Registry) NextTraceID() uint64 { return r.nextID() }

// NextSpanID mints an ID for one span so downstream hops can reference it
// as their Parent. Span IDs share the trace-ID space; never zero.
func (r *Registry) NextSpanID() uint64 { return r.nextID() }

func (r *Registry) nextID() uint64 {
	for {
		if id := r.seed + r.traceID.Add(1); id != 0 {
			return id
		}
	}
}

// SetNode names this process for the fleet plane (e.g. "daemon-2",
// "gw@:7101"): responses to trace-pull report it and every span recorded
// without an explicit Node is stamped with it.
func (r *Registry) SetNode(node string) {
	r.node.Store(node)
	r.Spans.SetNode(node)
}

// Node returns the identity set by SetNode ("" if unset).
func (r *Registry) Node() string {
	if v, ok := r.node.Load().(string); ok {
		return v
	}
	return ""
}

// AddGauges registers a gauge source (e.g. the cluster's per-server share
// and served totals) and returns the function that removes it again: no
// WriteMetrics that starts after the removal calls fn, and the registry no
// longer holds it (or anything fn holds). Removing twice is harmless.
func (r *Registry) AddGauges(fn func() []Gauge) (remove func()) {
	src := &gaugeSource{fn: fn}
	r.mu.Lock()
	r.gauges = append(r.gauges, src)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		r.gauges = slices.DeleteFunc(r.gauges, func(g *gaugeSource) bool { return g == src })
		r.mu.Unlock()
	}
}

// AddStatus registers a named status source for the /status endpoint: a
// point-in-time, JSON-marshalable description of one subsystem (role,
// replication state, ...). Registering a name again replaces the source.
func (r *Registry) AddStatus(name string, fn func() any) {
	r.mu.Lock()
	if r.status == nil {
		r.status = map[string]func() any{}
	}
	r.status[name] = fn
	r.mu.Unlock()
}

// Status snapshots every status source into one map.
func (r *Registry) Status() map[string]any {
	r.mu.Lock()
	srcs := make(map[string]func() any, len(r.status))
	for k, fn := range r.status {
		srcs[k] = fn
	}
	r.mu.Unlock()
	out := make(map[string]any, len(srcs))
	for k, fn := range srcs {
		out[k] = fn()
	}
	return out
}

// Counters snapshots every counter into a fresh map; /metrics exports each
// key prefixed with "anufs_".
func (r *Registry) Counters() map[string]int64 {
	out := map[string]int64{}
	r.counters.Range(func(k, c any) bool {
		out[k.(string)] = c.(*Counter).Load()
		return true
	})
	return out
}

// WriteMetrics renders the whole registry in Prometheus text format:
// counters, gauges, then histograms (with the coarse export ladder).
func (r *Registry) WriteMetrics(w io.Writer) {
	ctrs := r.Counters()
	names := make([]string, 0, len(ctrs))
	for k := range ctrs {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "# TYPE anufs_%s counter\nanufs_%s %d\n", k, k, ctrs[k])
	}

	r.mu.Lock()
	gsrcs := slices.Clone(r.gauges)
	r.mu.Unlock()
	var gs []Gauge
	for _, src := range gsrcs {
		gs = append(gs, src.fn()...)
	}
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].Name != gs[j].Name {
			return gs[i].Name < gs[j].Name
		}
		return gs[i].Labels < gs[j].Labels
	})
	last := ""
	for _, g := range gs {
		if g.Name != last {
			fmt.Fprintf(w, "# TYPE anufs_%s gauge\n", g.Name)
			last = g.Name
		}
		fmt.Fprintf(w, "anufs_%s%s %g\n", g.Name, braced(g.Labels), g.Value)
	}

	r.Hist.writeProm(w)
}
