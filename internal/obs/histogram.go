package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Log-bucketed latency histogram. Buckets are log-linear (HdrHistogram
// style): subCount linear sub-buckets per power of two of nanoseconds, so
// any recorded duration lands in a bucket whose width is at most 1/subCount
// of its lower bound. Quantile estimates are therefore within a relative
// error of 1/subCount (12.5%) of the true order statistic — tight enough to
// tell p99 regressions apart, cheap enough (one atomic add on a fixed
// array) to sit on every request path.
const (
	subShift = 3                                 // log2 of sub-buckets per octave
	subCount = 1 << subShift                     // 8
	nBuckets = (64-subShift)*subCount + subCount // identity range + one run per octave
)

// bucketOf maps a nanosecond value to its bucket index.
//
// TestObserveAndSpanAllocFree holds it to zero allocations.
func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < subCount {
		return int(v) // exact buckets for tiny values
	}
	exp := bits.Len64(v) - 1 // floor(log2 v) >= subShift
	mant := int((v >> uint(exp-subShift)) & (subCount - 1))
	return (exp-subShift+1)*subCount + mant
}

// bucketLower returns the smallest nanosecond value mapping to bucket i.
func bucketLower(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	exp := i/subCount + subShift - 1
	mant := i % subCount
	return int64(subCount+mant) << uint(exp-subShift)
}

// bucketWidth returns the width in nanoseconds of bucket i.
func bucketWidth(i int) int64 {
	if i < subCount {
		return 1
	}
	return int64(1) << uint(i/subCount-1)
}

// Histogram is a fixed-size, lock-free latency histogram. Observe is safe
// for concurrent use from any number of goroutines; readers see a
// near-consistent snapshot (bucket counts are loaded independently, which
// can skew a quantile by at most the handful of observations racing the
// read — irrelevant at the request volumes this instrumentats).
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [nBuckets]atomic.Int64
	// Exemplars: per coarse export bucket, the trace ID and value of the
	// most recent traced observation that landed there. The two cells are
	// stored independently — a racing pair can mismatch trace and value by
	// one observation, which is fine for a debugging pointer.
	exTrace [len(exportBounds) + 1]atomic.Uint64
	exNs    [len(exportBounds) + 1]atomic.Int64
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one latency sample. It sits on every request and has a
// <100ns budget (TestObserveOverheadBudget), so formatting and allocation
// stay out of it.
//
// TestObserveAndSpanAllocFree holds it to zero allocations.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketOf(int64(d))].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// ObserveTrace is Observe plus exemplar capture: when the sample belongs
// to a trace, the coarse export bucket it falls in remembers that trace
// ID, so a slow /metrics quantile links to a concrete fleet trace. Same
// hot-path budget as Observe (one extra compare loop over a 24-entry
// array and two atomic stores, no allocation).
//
// TestObserveAndSpanAllocFree holds it to zero allocations.
func (h *Histogram) ObserveTrace(d time.Duration, trace uint64) {
	h.Observe(d)
	if trace == 0 {
		return
	}
	bi := exportBucketOf(float64(d) / 1e9)
	h.exTrace[bi].Store(trace)
	h.exNs[bi].Store(int64(d))
}

// exportBucketOf returns the index of the coarse export bucket for a
// value in seconds (len(exportBounds) = the +Inf bucket).
//
// TestObserveAndSpanAllocFree holds it to zero allocations.
func exportBucketOf(sec float64) int {
	for bi := range exportBounds {
		if sec <= exportBounds[bi] {
			return bi
		}
	}
	return len(exportBounds)
}

// Exemplar links one coarse export bucket to the most recent traced
// observation recorded in it.
type Exemplar struct {
	Le    string        `json:"le"` // bucket upper bound (seconds; "+Inf")
	Trace uint64        `json:"trace"`
	Value time.Duration `json:"value"`
}

// Exemplars returns the populated exemplar slots, fastest bucket first.
func (h *Histogram) Exemplars() []Exemplar {
	var out []Exemplar
	for bi := 0; bi <= len(exportBounds); bi++ {
		tr := h.exTrace[bi].Load()
		if tr == 0 {
			continue
		}
		le := "+Inf"
		if bi < len(exportBounds) {
			le = formatBound(exportBounds[bi])
		}
		out = append(out, Exemplar{Le: le, Trace: tr, Value: time.Duration(h.exNs[bi].Load())})
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// Merge adds other's observations into h. Merge is associative and
// commutative: merging per-shard histograms in any order yields the same
// counts as observing every sample into one histogram.
func (h *Histogram) Merge(other *Histogram) {
	for i := range other.buckets {
		if n := other.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(other.count.Load())
	h.sumNs.Add(other.sumNs.Load())
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed values.
// The estimate is the midpoint of the bucket holding the order statistic,
// so it is within one bucket width (≤ 1/subCount relative) of the true
// value. An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the order statistic we want.
	rank := int64(q*float64(total-1)) + 1
	var seen int64
	last := 0
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		last = i
		seen += n
		if seen >= rank {
			return time.Duration(bucketLower(i) + bucketWidth(i)/2)
		}
	}
	// Racing observers can make the loaded total exceed the bucket sums we
	// saw; fall back to the highest populated bucket.
	return time.Duration(bucketLower(last) + bucketWidth(last)/2)
}

// Summary condenses the histogram for human-readable output.
type Summary struct {
	Count int64         `json:"count"`
	Sum   time.Duration `json:"sum"`
	P50   time.Duration `json:"p50"`
	P90   time.Duration `json:"p90"`
	P99   time.Duration `json:"p99"`
	P999  time.Duration `json:"p999"`
}

// Summarize returns count, sum and the standard quantiles.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
}

// exportBounds is the coarse ladder of upper bounds (seconds) used for
// Prometheus export: the full log-linear resolution stays in memory for
// quantiles, but 500 bucket lines per series would drown a scrape, so
// export folds the fine buckets into this ladder (1µs → 60s, roughly 2.5×
// apart) plus +Inf.
var exportBounds = [...]float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10, 30, 60,
}

// writeProm writes the histogram as Prometheus text-format series named
// name (labels, possibly empty, go inside the braces before "le").
func (h *Histogram) writeProm(w io.Writer, name, labels string) {
	cum := make([]int64, len(exportBounds))
	var total int64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		total += n
		upper := float64(bucketLower(i)+bucketWidth(i)) / 1e9
		for bi, bound := range exportBounds {
			if upper <= bound {
				cum[bi] += n
				break
			}
		}
	}
	// Make the folded counts cumulative.
	var running int64
	sep := ""
	if labels != "" {
		sep = ","
	}
	for bi, bound := range exportBounds {
		running += cum[bi]
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatBound(bound), running)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, total)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, braced(labels), h.Sum().Seconds())
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), total)
	// Exemplars ride along as comment lines: classic text-format parsers
	// skip '#' lines they don't recognize, while anufsctl top reads them
	// to link slow buckets to concrete traces.
	for _, ex := range h.Exemplars() {
		fmt.Fprintf(w, "# exemplar %s_bucket{%s%sle=%q} trace=%d value=%g\n",
			name, labels, sep, ex.Le, ex.Trace, ex.Value.Seconds())
	}
}

func formatBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }

// braced wraps a non-empty label string in braces (Prometheus series with
// no labels are written bare).
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// HistogramSet is a registry of histograms keyed by metric name and label
// string (e.g. `op="stat"`). Get is cheap but not free (a mutex and a map
// lookup); hot paths should call it once and keep the *Histogram.
type HistogramSet struct {
	mu sync.Mutex
	m  map[histKey]*Histogram
}

type histKey struct{ name, labels string }

// NewHistogramSet creates an empty set.
func NewHistogramSet() *HistogramSet { return &HistogramSet{m: map[histKey]*Histogram{}} }

// Get returns the histogram for (name, labels), creating it on first use.
// labels must be preformatted Prometheus label pairs without braces
// (`op="stat"`), or empty.
func (s *HistogramSet) Get(name, labels string) *Histogram {
	k := histKey{name, labels}
	s.mu.Lock()
	h, ok := s.m[k]
	if !ok {
		h = NewHistogram()
		s.m[k] = h
	}
	s.mu.Unlock()
	return h
}

// Each calls fn for every histogram, ordered by (name, labels).
func (s *HistogramSet) Each(fn func(name, labels string, h *Histogram)) {
	s.mu.Lock()
	keys := make([]histKey, 0, len(s.m))
	hs := make(map[histKey]*Histogram, len(s.m))
	for k, h := range s.m {
		keys = append(keys, k)
		hs[k] = h
	}
	s.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].labels < keys[j].labels
	})
	for _, k := range keys {
		fn(k.name, k.labels, hs[k])
	}
}

// writeProm writes every histogram in the set in Prometheus text format,
// applying the exporter's "anufs_" namespace prefix.
func (s *HistogramSet) writeProm(w io.Writer) {
	last := ""
	s.Each(func(name, labels string, h *Histogram) {
		full := "anufs_" + name
		if name != last {
			fmt.Fprintf(w, "# TYPE %s histogram\n", full)
			last = name
		}
		h.writeProm(w, full, labels)
	})
}
