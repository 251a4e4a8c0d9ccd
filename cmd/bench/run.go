package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"anufs/internal/obs"
)

// runResult is one run of one workload, as written to -out and compared by
// -compare.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Clients   int                `json:"clients"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Samples holds the sample counts behind the percentiles and the tail
	// quantile actually reported (0.99 unless fewer than 1000 samples).
	Samples  map[string]float64 `json:"samples"`
	Rungs    []rung             `json:"rungs,omitempty"`
	Table    []layerRow         `json:"layer_table,omitempty"`
	Findings []string           `json:"findings,omitempty"`
}

// env is what every run of this process shares.
type env struct {
	bins    binaries
	base    string // scratch directory for fleets, inside the checkout
	clients int    // C = min(nproc, 4)
	out     io.Writer
}

// setupRepeats is how many times an untraced run sets the fleet up; it
// reports the median, and measures on the last fleet.
const setupRepeats = 3

// measureWindow runs one recorded stretch between two snapshots.
func measureWindow(loops []*loop, f *fleet, w workloadSpec, secs int, rec *recorder) (*phase, window, error) {
	a, err := f.snapshot()
	if err != nil {
		return nil, window{}, err
	}
	ph, err := runPhase(loops, f, w, secs, true, rec)
	if err != nil {
		return nil, window{}, err
	}
	b, err := f.snapshot()
	return ph, window{a, b}, err
}

// classLatency reports p50 and the tail of one op class as medians over
// the slices, falling back to all ops when the workload's mix has (almost)
// none of the class — the contract wants every end-to-end metric on every
// workload. The tail is the highest quantile that keeps ten samples beyond
// it in the thinnest slice.
func classLatency(ph *phase, slices []*phase, kind *opKind, e, samples map[string]float64, prefix string) {
	if kind != nil {
		n := len(ph.latencies(kind))
		samples[prefix+"_samples"] = float64(n)
		if n < 20*len(slices) {
			kind = nil
		}
	}
	lats := make([][]time.Duration, len(slices))
	thinnest := len(ph.samples)
	for i, sl := range slices {
		lats[i] = sl.latencies(kind)
		thinnest = min(thinnest, len(lats[i]))
	}
	q := tailQuantile(thinnest)
	samples[prefix+"_tail_quantile"], samples[prefix+"_thinnest_slice"] = q, float64(thinnest)
	p50, tail := make([]float64, len(lats)), make([]float64, len(lats))
	for i, l := range lats {
		p50[i], tail[i] = ms(quantileOf(l, 0.5)), ms(quantileOf(l, q))
	}
	e[prefix+"_p50_ms"], e[prefix+"_p99_ms"] = median(p50), median(tail)
}

// endToEndMetrics computes the end-to-end metrics of one window.
func endToEndMetrics(w workloadSpec, f *fleet, ph *phase, win window, setups []float64) (map[string]float64, map[string]float64, error) {
	e, samples := map[string]float64{}, map[string]float64{}
	slices := ph.slices()
	samples["lat_samples"], samples["slices"] = float64(len(ph.samples)), float64(len(slices))
	e["ops_per_s"] = ph.opsPerSecond()
	read, write := opStat, opUpdate
	classLatency(ph, slices, nil, e, samples, "lat")
	classLatency(ph, slices, &read, e, samples, "read")
	classLatency(ph, slices, &write, e, samples, "write")
	e["fleet_cpu_us_per_op"] = medianOver(slices, func(sl *phase) float64 {
		if len(sl.samples) == 0 {
			return 0
		}
		return us(sl.cpu) / float64(len(sl.samples))
	})
	if dw := durableWrites(w, ph); dw > 0 {
		e["journal_bytes_per_write"] = win.counter("anufs_journal_bytes_appended") / float64(dw)
		samples["durable_writes"] = float64(dw)
	} else {
		e["journal_bytes_per_write"] = 0
	}
	var rss int64
	for _, p := range f.all() {
		b, err := peakRSS(p.cmd.Process.Pid)
		if err != nil {
			return nil, nil, err
		}
		rss += b
	}
	e["fleet_rss_mb"] = float64(rss) / (1 << 20)
	ownerOf := ph.ownerFunc(f)
	e["balance_spread"] = medianOver(slices, func(sl *phase) float64 { return sl.balanceSpread(ownerOf) })
	e["setup_s"] = median(setups)
	return e, samples, nil
}

// runWorkload runs w once: set-up, warm-up, the measured window, with
// traced also the traced window and the ladder, then the correctness gate.
func runWorkload(e *env, w workloadSpec, seed uint64, seconds int, traced bool) (*runResult, []span, error) {
	n, conns := e.clients, e.clients
	if w.Name == wlMixedTenants && n < 2 {
		n, conns = 2, 2 // one writer and one reader at least
	}
	if w.InFlight > 0 {
		n = w.InFlight
	}
	runtime.GOMAXPROCS(conns)
	res := &runResult{Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced, Clients: n}

	repeats := setupRepeats
	if traced {
		repeats = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	var f *fleet
	var setups []float64
	for i := 0; i < repeats; i++ {
		if f != nil {
			f.stop()
		}
		var err error
		if f, err = launch(e.bins, e.base, w); err != nil {
			return nil, nil, err
		}
		setups = append(setups, f.setup.Seconds())
	}
	defer f.stop()

	clients, err := newClients(w, f, n, conns, nil)
	if err != nil {
		return nil, nil, err
	}
	defer func() { closeClients(clients) }()
	loops := make([]*loop, n)
	leds := make([]*ledger, n)
	for i := range loops {
		leds[i] = newLedger()
		loops[i] = &loop{c: clients[i], stream: newOpStream(w, seed, i, n, 0), led: leds[i], writers: writersOf(w, n), index: i}
	}
	if _, err := runPhase(loops, f, w, w.WarmupSecs, false, nil); err != nil {
		return nil, nil, err
	}
	for _, l := range loops {
		if l.firstErr != nil {
			return nil, nil, fmt.Errorf("%s: op failed during warm-up: %w", w.Name, l.firstErr)
		}
	}

	secs := seconds
	if traced {
		secs = (seconds + 1) / 2 // the traced run splits its time: untraced window, traced window, ladder
	}
	ph, win, err := measureWindow(loops, f, w, secs, nil)
	if err != nil {
		return nil, nil, err
	}
	sums := func() (attempted, failed int64) {
		for _, l := range loops {
			attempted += l.attempted
			failed += l.failed
		}
		return
	}
	if res.EndToEnd, res.Samples, err = endToEndMetrics(w, f, ph, win, setups); err != nil {
		return nil, nil, err
	}

	var spans []span
	var td *traceData
	if traced {
		// The traced window: the sdk's own instruments on, a bench span
		// around every op, /metrics scraped at both edges.
		reg, rec := obs.New(), &recorder{}
		tclients, err := newClients(w, f, n, conns, reg)
		if err != nil {
			return nil, nil, err
		}
		closeClients(clients)
		clients = tclients
		for i, l := range loops {
			l.c = clients[i]
		}
		tph, twin, err := measureWindow(loops, f, w, secs, rec)
		if err != nil {
			return nil, nil, err
		}
		lad := &ladder{w: w, f: f, stream: newOpStream(w, seed, 0, n, 1), led: leds[0],
			write: w.CrashCheck, rec: rec, rungs: map[string]rung{}}
		// A tenth of the window per rung: about as long again for the descent.
		lad.budget = time.Duration(secs) * time.Second / 10
		if err := lad.fleetRungs(); err != nil {
			return nil, nil, err
		}
		if err := lad.scratchRungs(f.dir); err != nil {
			return nil, nil, err
		}
		td = &traceData{lad: lad, win: twin, traced: tph, clientCtrs: reg.Counters(),
			untracedOps: res.EndToEnd["ops_per_s"], codec: measureCodec(lad.pairs)}
		if td.core, err = measureCore(f.names, f.cm, seed, w.Name == wlHetero); err != nil {
			return nil, nil, err
		}
		for _, l := range loops {
			spans = append(spans, l.spans...)
		}
		spans = append(spans, lad.spans...)
	}

	// The correctness gate.
	res.Attempted, res.Failed = sums()
	checked, wrong, first := readBack(clients[0], leds)
	res.Samples["read_back_checked"] = float64(checked)
	var crash crashReport
	if w.CrashCheck {
		if crash, err = crashCheck(w, f, leds); err != nil {
			return nil, nil, err
		}
		res.Samples["crash_checked"] = float64(crash.checked)
		if first == nil {
			first = crash.first
		}
	}
	res.EndToEnd["acked_lost"] = float64(crash.ackedLost)
	res.Attempted += int64(checked)
	res.Failed += int64(wrong)
	for _, l := range loops {
		if first == nil {
			first = l.firstErr
		}
	}
	res.EndToEnd["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0 && crash.ackedLost == 0
	if !res.Correct {
		res.Findings = append(res.Findings, fmt.Sprintf("correctness gate failed: %d of %d ops failed or answered wrong, %d acked writes lost; first: %v",
			res.Failed, res.Attempted, crash.ackedLost, first))
	}
	if td != nil {
		td.crash = crash
		var rootUs, residueUs float64
		var findings []string
		res.Table, rootUs, residueUs = layerTable(td.lad)
		res.PerLayer, findings = perLayerMetrics(w, f, td, res.EndToEnd, rootUs, residueUs)
		res.Findings = append(res.Findings, findings...)
		for _, name := range td.lad.order {
			res.Rungs = append(res.Rungs, td.lad.rungs[name])
		}
		printLayerTable(e.out, w.Name, td.lad, res.Table, rootUs, residueUs)
	}
	return res, spans, nil
}

// printResult writes the human-readable report of one run.
func printResult(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "\n%s  seed=%d seconds=%d clients=%d traced=%v correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Clients, r.Traced, r.Correct, r.Attempted, r.Failed)
	for _, spec := range endToEnd {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", spec.Name, r.EndToEnd[spec.Name], spec.Unit)
	}
	fmt.Fprintf(w, "  %-28s %14.0f count\n", "acked_lost", r.EndToEnd["acked_lost"])
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "  samples:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%g", k, r.Samples[k])
	}
	fmt.Fprintln(w)
	if r.PerLayer != nil {
		for _, spec := range perLayer {
			fmt.Fprintf(w, "  %-28s %14.4f %-8s [%s]\n", spec.Name, r.PerLayer[spec.Name], spec.Unit, spec.Layer)
		}
	}
	for _, f := range r.Findings {
		fmt.Fprintf(w, "  FINDING: %s\n", f)
	}
}
