package obs

import (
	"strings"
	"testing"
	"time"
)

// TestExemplarCapture: a traced observation stamps its coarse export
// bucket with the trace ID; untraced observations never do.
func TestExemplarCapture(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond) // untraced
	if ex := h.Exemplars(); len(ex) != 0 {
		t.Fatalf("untraced observation produced exemplars: %+v", ex)
	}
	h.ObserveTrace(2*time.Millisecond, 42)
	h.ObserveTrace(800*time.Millisecond, 43)
	h.ObserveTrace(900*time.Millisecond, 0) // trace 0 = untraced
	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("exemplars = %+v, want 2", ex)
	}
	if ex[0].Trace != 42 || ex[0].Value != 2*time.Millisecond {
		t.Fatalf("fast exemplar = %+v", ex[0])
	}
	if ex[1].Trace != 43 || ex[1].Le != "1" {
		t.Fatalf("slow exemplar = %+v (800ms belongs in the le=1s bucket)", ex[1])
	}
	// A newer traced observation in the same bucket replaces the old one.
	h.ObserveTrace(2*time.Millisecond, 44)
	if ex := h.Exemplars(); ex[0].Trace != 44 {
		t.Fatalf("exemplar not replaced: %+v", ex[0])
	}
}

// TestParsePromRoundTrip writes a full registry (counters, labeled
// gauges, histograms with exemplars) through WriteMetrics and reads it
// back with ParseProm — the exact loop anufsctl top runs against every
// fleet node's /metrics.
func TestParsePromRoundTrip(t *testing.T) {
	reg := New()
	reg.Counter("wire_requests").Add(12)
	reg.Counter("sdk_pool_redials").Add(3)
	reg.AddGauges(func() []Gauge {
		return []Gauge{
			{Name: "replica_lag_entries", Labels: `peer="127.0.0.1:7461"`, Value: 5},
			{Name: "sdk_pool_live", Labels: `daemon="127.0.0.1:7460"`, Value: 4},
		}
	})
	h := reg.Hist.Get("wire_request_seconds", `op="update"`)
	for i := 0; i < 99; i++ {
		h.Observe(time.Millisecond)
	}
	h.ObserveTrace(400*time.Millisecond, 77) // the slow outlier, traced

	var sb strings.Builder
	reg.WriteMetrics(&sb)
	if !strings.Contains(sb.String(), "# exemplar anufs_wire_request_seconds_bucket") {
		t.Fatalf("no exemplar line emitted:\n%s", sb.String())
	}

	s, err := ParseProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Value("anufs_wire_requests", nil); !ok || v != 12 {
		t.Fatalf("counter = %v, %v", v, ok)
	}
	if v, ok := s.Value("anufs_replica_lag_entries", map[string]string{"peer": "127.0.0.1:7461"}); !ok || v != 5 {
		t.Fatalf("labeled gauge = %v, %v", v, ok)
	}
	if got := s.LabelValues("anufs_sdk_pool_live", "daemon"); len(got) != 1 || got[0] != "127.0.0.1:7460" {
		t.Fatalf("LabelValues = %v", got)
	}
	if v, ok := s.Value("anufs_wire_request_seconds_count", map[string]string{"op": "update"}); !ok || v != 100 {
		t.Fatalf("histogram count = %v, %v", v, ok)
	}
	// p50 should sit in the low-millisecond bucket, p995 catch the outlier.
	if q, ok := s.Quantile("anufs_wire_request_seconds", map[string]string{"op": "update"}, 0.5); !ok || q > 5*time.Millisecond {
		t.Fatalf("p50 = %v, %v", q, ok)
	}
	if q, ok := s.Quantile("anufs_wire_request_seconds", map[string]string{"op": "update"}, 0.995); !ok || q < 100*time.Millisecond {
		t.Fatalf("p995 = %v, %v (should land in the outlier's bucket)", q, ok)
	}
	ex, ok := s.SlowestExemplar("anufs_wire_request_seconds", map[string]string{"op": "update"})
	if !ok || ex.Trace != 77 {
		t.Fatalf("slowest exemplar = %+v, %v", ex, ok)
	}
	if ex.Value < 0.39 || ex.Value > 0.41 {
		t.Fatalf("exemplar value = %v seconds, want ~0.4", ex.Value)
	}
}

// TestParsePromSkipsGarbage: live scrapes may race a writing daemon; bad
// lines must be skipped, not fatal.
func TestParsePromSkipsGarbage(t *testing.T) {
	in := `anufs_good 1
this is not a metric line at all
anufs_bad{unterminated="x 2
anufs_also_good{op="stat"} 3
# exemplar anufs_x_bucket{le="1"} trace=notanumber value=0.5
# exemplar anufs_x_bucket{le="1"} trace=9 value=0.5
`
	s, err := ParseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 {
		t.Fatalf("points = %+v, want 2", s.Points)
	}
	if len(s.Exemplars) != 1 || s.Exemplars[0].Trace != 9 {
		t.Fatalf("exemplars = %+v", s.Exemplars)
	}
}
