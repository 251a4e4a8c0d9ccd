package obs

import (
	"testing"
	"time"
)

// BenchmarkHistogramObserve is the hot-path budget benchmark: Observe sits
// on every request in the wire server, every completion in the live owner
// queues, and every journal batch, so it must stay well under 100ns/op
// (TestObserveOverheadBudget holds it there).
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	d := 2 * time.Millisecond
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(d)
	}
}

// BenchmarkHistogramObserveParallel measures the contended case: every
// worker hammers the same three atomics.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := time.Millisecond
		for pb.Next() {
			h.Observe(d)
			d += 17 * time.Microsecond
		}
	})
}

// BenchmarkQuantile measures the read side over a populated histogram.
func BenchmarkQuantile(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < 100000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.99)
	}
}

// BenchmarkSpanRingAdd measures trace recording overhead.
func BenchmarkSpanRingAdd(b *testing.B) {
	r := NewSpanRing(8192)
	s := Span{Trace: 1, Name: "queue-wait", Op: "stat", FileSet: "vol00", Server: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(s)
	}
}

// TestObserveOverheadBudget enforces the <100ns/op acceptance bound on the
// histogram hot path. Skipped under the race detector (atomics cost ~10x
// there) and -short, so it runs in a plain `go test ./...`, not in CI's
// race run.
func TestObserveOverheadBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates atomic ops")
	}
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// Best of three rounds, to shrug off scheduler noise on shared CI.
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		res := testing.Benchmark(BenchmarkHistogramObserve)
		if ns := time.Duration(res.NsPerOp()); ns < best {
			best = ns
		}
	}
	if best >= 100*time.Nanosecond {
		t.Fatalf("histogram Observe = %v/op, budget is <100ns", best)
	}
}
