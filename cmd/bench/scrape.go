package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"anufs/internal/obs"
)

// Outside-in readings of the fleet: each process's /metrics parsed with
// obs.ParseProm, its CPU time from /proc/<pid>/stat and its peak RSS from
// /proc/<pid>/status. Nothing here needs a flag or code path in the product.

var httpClient = &http.Client{Timeout: 10 * time.Second}

func scrape(p *proc) (*obs.Scrape, error) {
	resp, err := httpClient.Get("http://" + p.http + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", p.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", p.name, resp.Status)
	}
	return obs.ParseProm(resp.Body)
}

// userHZ is the kernel's USER_HZ, the unit of utime/stime in /proc/pid/stat
// (100 on every Linux ABI Go supports).
const userHZ = 100

// cpuTime returns the process's user+system CPU time.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields follow the parenthesised command name, which may hold spaces.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / userHZ, nil
}

// peakRSS returns the process's VmHWM in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM in /proc/%d/status", pid)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// snapshot is one edge of a measured window: every process's parsed
// /metrics and CPU time, keyed by process name.
type snapshot struct {
	at      time.Time
	metrics map[string]*obs.Scrape
	cpu     map[string]time.Duration
	self    time.Duration // the generator's own CPU time
}

func (f *fleet) snapshot() (*snapshot, error) {
	s := &snapshot{at: time.Now(), metrics: map[string]*obs.Scrape{}, cpu: map[string]time.Duration{}}
	for _, p := range f.all() {
		sc, err := scrape(p)
		if err != nil {
			return nil, err
		}
		s.metrics[p.name] = sc
		if s.cpu[p.name], err = cpuTime(p.cmd.Process.Pid); err != nil {
			return nil, err
		}
	}
	var err error
	s.self, err = cpuTime(os.Getpid())
	return s, err
}

// window is the difference of two snapshots.
type window struct{ a, b *snapshot }

// counter sums the growth of an unlabelled counter (or every series of a
// labelled one) over the named processes; no names means all.
func (w window) counter(metric string, procs ...string) float64 {
	if len(procs) == 0 {
		for name := range w.b.metrics {
			procs = append(procs, name)
		}
	}
	sum := func(s *obs.Scrape) (t float64) {
		s.Each(metric, func(p obs.MetricPoint) { t += p.Value })
		return t
	}
	var d float64
	for _, name := range procs {
		if w.b.metrics[name] != nil {
			d += sum(w.b.metrics[name]) - sum(w.a.metrics[name])
		}
	}
	return d
}

// cpu is the CPU time the named processes (all when none) spent in the
// window.
func (w window) cpu(procs ...string) time.Duration {
	var d time.Duration
	for name, after := range w.b.cpu {
		if len(procs) == 0 || slices.Contains(procs, name) {
			d += after - w.a.cpu[name]
		}
	}
	return d
}

// quantile estimates the q-quantile of histogram metric over the window,
// merged across processes and label sets: bucket counts are differenced
// between the two edges and the rank is interpolated linearly inside its
// bucket (obs exports a coarse ~2.5x ladder; Scrape.Quantile would answer
// with the bucket's upper bound only). procs restricts the merge (none =
// all); ok is false without observations.
func (w window) quantile(metric string, q float64, procs ...string) (d time.Duration, ok bool) {
	cum := map[float64]float64{} // le -> cumulative count growth
	add := func(s *obs.Scrape, sign float64) {
		s.Each(metric+"_bucket", func(p obs.MetricPoint) {
			le := math.Inf(1)
			if v := p.Labels["le"]; v != "+Inf" {
				var err error
				if le, err = strconv.ParseFloat(v, 64); err != nil {
					return
				}
			}
			cum[le] += sign * p.Value
		})
	}
	for name, after := range w.b.metrics {
		if len(procs) == 0 || slices.Contains(procs, name) {
			add(after, 1)
			add(w.a.metrics[name], -1)
		}
	}
	les := make([]float64, 0, len(cum))
	for le := range cum {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 || cum[les[len(les)-1]] <= 0 {
		return 0, false
	}
	rank := q * cum[les[len(les)-1]]
	lower, below := 0.0, 0.0
	for _, le := range les {
		if cum[le] >= rank {
			if math.IsInf(le, 1) {
				return time.Duration(lower * float64(time.Second)), true
			}
			frac := (rank - below) / (cum[le] - below)
			return time.Duration((lower + frac*(le-lower)) * float64(time.Second)), true
		}
		lower, below = le, cum[le]
	}
	return time.Duration(lower * float64(time.Second)), true
}
