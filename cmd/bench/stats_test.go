package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"anufs/internal/obs"
)

func TestOpsPerSecondIsTheMedianBucket(t *testing.T) {
	ph := &phase{hi: 5}
	// 100 completions in each second but the third, where the host stalled.
	for sec, n := range []int{100, 100, 3, 100, 100} {
		for i := 0; i < n; i++ {
			ph.samples = append(ph.samples, sample{end: time.Duration(sec)*time.Second + time.Duration(i)*time.Millisecond})
		}
	}
	if got := ph.opsPerSecond(); got != 100 {
		t.Errorf("ops_per_s = %v, want 100: one stalled second must not move the result", got)
	}
}

func TestSlicesReportMedians(t *testing.T) {
	// Ten seconds, five slices of two; the fleet burned 1s of CPU in each
	// slice but the third, where a stall cost 5s and slowed every op.
	ph := &phase{hi: 10, cpuAt: []time.Duration{0, 1e9, 2e9, 7e9, 8e9, 9e9}}
	for sec := 0; sec < 10; sec++ {
		lat := time.Millisecond
		if sec == 4 || sec == 5 {
			lat = 50 * time.Millisecond
		}
		for i := 0; i < 100; i++ {
			ph.samples = append(ph.samples, sample{end: time.Duration(sec)*time.Second + time.Duration(i)*time.Millisecond, lat: lat})
		}
	}
	slices := ph.slices()
	if len(slices) != 5 || len(slices[2].samples) != 200 || slices[2].cpu != 5*time.Second {
		t.Fatalf("slices = %d, third has %d samples and %v cpu", len(slices), len(slices[2].samples), slices[2].cpu)
	}
	if got := medianOver(slices, func(sl *phase) float64 { return ms(quantileOf(sl.latencies(nil), 0.99)) }); got != 1 {
		t.Errorf("median p99 over slices = %v ms, want 1: the stalled slice must not move it", got)
	}
	if got := medianOver(slices, func(sl *phase) float64 { return us(sl.cpu) / float64(len(sl.samples)) }); got != 5000 {
		t.Errorf("median cpu per op = %v us, want 5000", got)
	}
	if got := slices[1].opsPerSecond(); got != 100 {
		t.Errorf("a slice's ops_per_s = %v, want 100", got)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{21, 100, 353, 999, 1000, 50000} {
		q := tailQuantile(n)
		if beyond := float64(n) * (1 - q); beyond < 10-1e-9 || q > 0.99 {
			t.Errorf("n=%d: quantile %v leaves %.1f samples beyond", n, q, beyond)
		}
	}
}

func TestBalanceSpread(t *testing.T) {
	ph := &phase{hi: 1}
	for i := 0; i < 100; i++ {
		ph.samples = append(ph.samples, sample{fs: 0, lat: 2 * time.Millisecond}, sample{fs: 1, lat: 5 * time.Millisecond})
	}
	ph.samples = append(ph.samples, sample{fs: 2, lat: time.Hour}) // a server with a single sample is left out
	if got := ph.balanceSpread(func(_, fs int) int { return fs }); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("balance_spread = %v, want 2.5", got)
	}
}

func scrapeOf(t *testing.T, text string) *obs.Scrape {
	t.Helper()
	s, err := obs.ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWindowDifferencesCountersAndHistograms(t *testing.T) {
	before := scrapeOf(t, `anufs_journal_fsyncs 10
anufs_x_seconds_bucket{op="a",le="0.001"} 100
anufs_x_seconds_bucket{op="a",le="0.0025"} 100
anufs_x_seconds_bucket{op="a",le="+Inf"} 100
`)
	after := scrapeOf(t, `anufs_journal_fsyncs 25
anufs_x_seconds_bucket{op="a",le="0.001"} 150
anufs_x_seconds_bucket{op="a",le="0.0025"} 200
anufs_x_seconds_bucket{op="a",le="+Inf"} 200
`)
	w := window{
		a: &snapshot{metrics: map[string]*obs.Scrape{"d0": before}, cpu: map[string]time.Duration{"d0": time.Second}},
		b: &snapshot{metrics: map[string]*obs.Scrape{"d0": after}, cpu: map[string]time.Duration{"d0": 3 * time.Second}},
	}
	if got := w.counter("anufs_journal_fsyncs"); got != 15 {
		t.Errorf("counter growth = %v, want 15", got)
	}
	if got := w.cpu(); got != 2*time.Second {
		t.Errorf("cpu = %v, want 2s", got)
	}
	// 100 observations in the window: 50 up to 1ms, 50 in (1ms, 2.5ms].
	// The 75th sits halfway through the second bucket.
	got, ok := w.quantile("anufs_x_seconds", 0.75)
	if want := 1750 * time.Microsecond; !ok || got != want {
		t.Errorf("p75 = %v (ok=%v), want %v", got, ok, want)
	}
	if _, ok := w.quantile("anufs_absent_seconds", 0.5); ok {
		t.Error("a histogram without observations reported a quantile")
	}
}

func TestProcReadings(t *testing.T) {
	if _, err := cpuTime(os.Getpid()); err != nil {
		t.Error(err)
	}
	if rss, err := peakRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("peakRSS = %d, %v", rss, err)
	}
}

func TestLayerTableSumsToTheRootRung(t *testing.T) {
	l := &ladder{rungs: map[string]rung{}}
	for name, d := range map[string]time.Duration{
		rSDK: 5000, rRoute: 4000, rConn: 3900, rConnNS: 3300, rPing: 50, rLive: 2600,
		rMeta: 2650, // slower than the rung above it: clamped, lands in the residue
		rDisk: 2500, rLog: 2400, rFloor: 200,
	} {
		l.put(rung{Name: name, Layer: "x", Median: d * time.Microsecond})
	}
	rows, root, residue := layerTable(l)
	sum := residue
	for _, r := range rows {
		if r.SelfUs < 0 {
			t.Errorf("row %s has negative self time %v", r.Source, r.SelfUs)
		}
		sum += r.SelfUs
	}
	if root != 5000 || math.Abs(sum-root) > 1e-6 {
		t.Errorf("rows + residue = %v, root = %v", sum, root)
	}
	if residue != -50 {
		t.Errorf("residue = %v, want -50 (the clamped live row)", residue)
	}
}
