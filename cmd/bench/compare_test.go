package main

import (
	"bytes"
	"math"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([...], n=4) with the default (exclusive) method.
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		for i, got := range [3]float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.in, i, got, c.want[i])
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	failRatio := metricSpec{Name: "fail_ratio", Better: "lower", Bound: 0}
	tight := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name string
		spec metricSpec
		a, b []float64
		want verdict
	}{
		{"same", lower, tight, tight, vWithin},
		{"slower past the bound", lower, tight, []float64{115, 116, 114, 115, 115}, vWorse},
		{"slower inside the bound", lower, tight, []float64{105, 106, 104, 105, 105}, vWithin},
		{"faster past the bound", lower, tight, []float64{80, 81, 79, 80, 80}, vBetter},
		{"throughput down is worse", higher, tight, []float64{85, 86, 84, 85, 85}, vWorse},
		{"throughput up is better", higher, tight, []float64{120, 121, 119, 120, 120}, vBetter},
		{"spread wider than the bound", lower, tight, []float64{80, 100, 120, 90, 110}, vUnresolved},
		{"wide spread does not hide a regression", lower, tight, []float64{120, 150, 180, 140, 160}, vWorse},
		{"single runs compare medians only", lower, []float64{100}, []float64{104}, vWithin},
		{"fail_ratio may not rise at all", failRatio, []float64{0, 0, 0}, []float64{0, 0.001, 0.001}, vWorse},
		{"fail_ratio staying 0", failRatio, []float64{0, 0}, []float64{0, 0}, vWithin},
	}
	for _, c := range cases {
		if got, _, _, _, _ := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareCountsWorseRows(t *testing.T) {
	run := func(lat float64) *runResult {
		return &runResult{Workload: wlReadMostly, EndToEnd: map[string]float64{"lat_p50_ms": lat, "ops_per_s": 1000, "fail_ratio": 0}}
	}
	a := &resultFile{Runs: []*runResult{run(1.0), run(1.01), run(0.99)}}
	b := &resultFile{Runs: []*runResult{run(1.3), run(1.31), run(1.29), {Workload: wlReadMostly, Traced: true, EndToEnd: map[string]float64{"lat_p50_ms": 9}}}}
	var out bytes.Buffer
	if n := compareResults(&out, a, b); n != 1 {
		t.Fatalf("%d rows worse, want 1 (traced runs are not end-to-end evidence)\n%s", n, out.String())
	}
	if n := compareResults(&out, a, a); n != 0 {
		t.Fatalf("a file against itself: %d rows worse", n)
	}
}
