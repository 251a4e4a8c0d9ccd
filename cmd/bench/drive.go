package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"anufs/internal/obs"
	"anufs/internal/sdk"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// The closed-loop driver: each client blocks on every reply, as a metadata
// client does. One client is one goroutine with its own op stream, its own
// connection(s) and its own ledger of the values it wrote.

// caller is the part of sdk.Pool and sdk.Conn the driver needs.
type caller interface {
	Call(wire.Request) (wire.Response, error)
}

// requestFor is the wire request the workload sends for o when it talks to
// the fleet without an sdk.Client. Durable writes are an OpBatch of one
// item — on small-write that is exactly what sdk.Client's batcher emits.
func requestFor(w workloadSpec, names []string, o op) wire.Request {
	fs, path := names[o.FileSet], pathName(o.Path)
	if o.Kind == opStat {
		return wire.Request{Op: wire.OpStat, FileSet: fs, Path: path}
	}
	rec := recordFor(o.FileSet, o.Path, o.Seq)
	if w.CrashCheck {
		return wire.Request{Op: wire.OpBatch, FileSet: fs, Durable: true,
			Batch: []wire.BatchItem{{Op: wire.OpUpdate, Path: path, Record: &rec}}}
	}
	return wire.Request{Op: wire.OpUpdate, FileSet: fs, Path: path, Record: &rec}
}

// answerOf extracts the record a stat answered and folds per-item batch
// errors into err.
func answerOf(resp wire.Response, err error) (sharedisk.Record, error) {
	if err != nil {
		return sharedisk.Record{}, err
	}
	for _, r := range resp.Results {
		if r.Err != "" {
			return sharedisk.Record{}, errors.New(r.Err)
		}
	}
	if resp.Record != nil {
		return *resp.Record, nil
	}
	return sharedisk.Record{}, nil
}

// client is one closed loop's way into the fleet.
type client struct {
	w      workloadSpec
	names  []string
	sdk    *sdk.Client // small-write only
	call   caller
	closer func()
}

func (c *client) do(o op) (sharedisk.Record, error) {
	if c.sdk == nil {
		return answerOf(c.call.Call(requestFor(c.w, c.names, o)))
	}
	fs, path := c.names[o.FileSet], pathName(o.Path)
	if o.Kind == opStat {
		return c.sdk.Stat(fs, path)
	}
	return sharedisk.Record{}, c.sdk.Update(fs, path, recordFor(o.FileSet, o.Path, o.Seq))
}

// smallWriteBatchDelay is the sdk's coalescing delay on small-write, the
// only durable small-write path the sdk has.
const smallWriteBatchDelay = 200 * time.Microsecond

// newClients builds n clients against f. reg, when set, turns the sdk's
// own instruments on (the traced window). Connection budget: one pipelined
// connection per client, except on hetero-balance where the n in-flight
// loops are multiplexed over conns connections.
func newClients(w workloadSpec, f *fleet, n, conns int, reg *obs.Registry) ([]*client, error) {
	out := make([]*client, 0, n)
	closeAll := func() { closeClients(out) }
	opts := sdk.Options{PoolSize: 1, HealthInterval: -1, Timeout: callTimeout, Obs: reg}
	var shared []*sdk.Conn
	for i := 0; i < n; i++ {
		c := &client{w: w, names: f.names}
		switch {
		case w.Name == wlSmallWrite:
			o := opts
			o.Authority, o.Durable, o.BatchDelay = f.daemons[0].addr, true, smallWriteBatchDelay
			cl, err := sdk.NewClient(o)
			if err != nil {
				closeAll()
				return nil, err
			}
			c.sdk, c.closer = cl, func() { cl.Close() }
		case w.TopologyB:
			if i < conns {
				conn, err := sdk.Dial(f.target(), opts)
				if err != nil {
					closeAll()
					return nil, err
				}
				shared = append(shared, conn)
				c.closer = func() { conn.Close() }
			} else {
				c.closer = func() {}
			}
			c.call = shared[i%conns]
		default:
			p := sdk.NewPool(f.target(), opts)
			c.call, c.closer = p, func() { p.Close() }
		}
		out = append(out, c)
	}
	return out, nil
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.closer()
	}
}

// sample is one completed op of a measured window.
type sample struct {
	end  time.Duration // completion, from the window's start
	lat  time.Duration
	kind opKind
	fs   int
}

// ledger is what one client knows about the keys it alone writes: the last
// acked seq per key, and the keys whose last write failed (state unknown).
type ledger struct {
	acked   map[[2]int]uint32
	unknown map[[2]int]bool
}

func newLedger() *ledger {
	return &ledger{acked: map[[2]int]uint32{}, unknown: map[[2]int]bool{}}
}

// loop is one client's state across the phases of a run.
type loop struct {
	c       *client
	stream  *opStream
	led     *ledger
	writers int // stripe count of the written key space; 0 = nobody writes
	index   int
	samples []sample
	spans   []span
	// attempted/failed count every op issued after warm-up.
	attempted, failed int64
	firstErr          error
}

// wrote reports whether the workload ever writes file set fs.
func wrote(w workloadSpec, fs int) bool {
	switch w.Name {
	case wlHetero:
		return false
	case wlMixedTenants:
		return fs < w.Volumes[0].FileSets
	}
	return true
}

// check compares a stat answer with what the ledger allows: the key folded
// into the value must be the key asked for, and where this client is the
// key's only writer (or nobody writes it) the seq must be the last acked.
func (l *loop) check(o op, rec sharedisk.Record) error {
	if fs, path := keyOf(rec.Size); fs != o.FileSet || path != o.Path {
		return fmt.Errorf("stat %d/%d answered the value of %d/%d", o.FileSet, o.Path, fs, path)
	}
	key := [2]int{o.FileSet, o.Path}
	own := !wrote(l.c.w, o.FileSet) || (l.writers > 0 && l.index < l.writers && o.Path%l.writers == l.index)
	if !own || l.led.unknown[key] {
		return nil
	}
	if want := recordFor(o.FileSet, o.Path, l.led.acked[key]); !sameValue(rec, want) {
		return fmt.Errorf("stat %d/%d answered %+v, last acked %+v", o.FileSet, o.Path, rec, want)
	}
	return nil
}

// run drives the loop until deadline. record keeps samples (and, with rec,
// spans) — warm-up passes false.
func (l *loop) run(start, deadline time.Time, record bool, rec *recorder) {
	for {
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		o := l.stream.next()
		got, err := l.c.do(o)
		t1 := time.Now()
		key := [2]int{o.FileSet, o.Path}
		switch {
		case err != nil && o.Kind == opUpdate:
			l.led.unknown[key] = true
		case err == nil && o.Kind == opUpdate:
			l.led.acked[key] = o.Seq
			delete(l.led.unknown, key)
		case err == nil:
			err = l.check(o, got)
		}
		if !record {
			if err != nil && l.firstErr == nil {
				l.firstErr = err
			}
			continue
		}
		l.attempted++
		if err != nil {
			l.failed++
			if l.firstErr == nil {
				l.firstErr = err
			}
			continue
		}
		l.samples = append(l.samples, sample{end: t1.Sub(start), lat: t1.Sub(t0), kind: o.Kind, fs: o.FileSet})
		if rec != nil {
			l.spans = append(l.spans, rec.span(0, "op", "workload", t0, t1))
		}
	}
}

// phase is one measured (or warm-up) stretch of a run, or a slice of one.
type phase struct {
	// lo and hi are the whole seconds covered, counted from the start of
	// the stretch the driver ran (a slice keeps its parent's clock).
	lo, hi  int
	samples []sample
	// owners[s][fs] is the server owning fs during second s, sampled live
	// on hetero-balance; Topology A uses the static cluster map.
	owners [][]int
	// cpuAt is the fleet's CPU clock at every slice boundary of a recorded
	// stretch; cpu is what a slice spent.
	cpuAt []time.Duration
	cpu   time.Duration
}

// sliceSecs is the length of the sub-windows a measured window of secs
// seconds is cut into: five of them, at least a second each. Latency, CPU
// and balance are reported as the median over the slices, so a disturbance
// shorter than half the window does not move the result.
func sliceSecs(secs int) int { return max(1, secs/5) }

// slices cuts a recorded stretch into its sub-windows. Seconds left over
// after the last whole slice, and the op that straddles the end, belong to
// none.
func (ph *phase) slices() []*phase {
	n := sliceSecs(ph.hi)
	out := make([]*phase, ph.hi/n)
	for i := range out {
		out[i] = &phase{lo: i * n, hi: (i + 1) * n, owners: ph.owners, cpu: ph.cpuAt[i+1] - ph.cpuAt[i]}
	}
	for _, s := range ph.samples {
		if i := int(s.end/time.Second) / n; i < len(out) {
			out[i].samples = append(out[i].samples, s)
		}
	}
	return out
}

// medianOver is the median over the slices of one reading.
func medianOver(slices []*phase, f func(*phase) float64) float64 {
	v := make([]float64, len(slices))
	for i, sl := range slices {
		v[i] = f(sl)
	}
	return median(v)
}

// runPhase drives every loop for secs seconds. With record, samples are
// harvested from the loops and an observer notes ownership and CPU.
func runPhase(loops []*loop, f *fleet, w workloadSpec, secs int, record bool, rec *recorder) (*phase, error) {
	for _, l := range loops {
		l.samples = l.samples[:0]
	}
	start := time.Now()
	deadline := start.Add(time.Duration(secs) * time.Second)
	ph := &phase{hi: secs}
	var wg sync.WaitGroup
	var observeErr error
	if record {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer guard()
			observeErr = ph.observe(f, w, loops[0].c.call, start)
		}()
	}
	for _, l := range loops {
		wg.Add(1)
		go func(l *loop) {
			defer wg.Done()
			defer guard()
			l.run(start, deadline, record, rec)
		}(l)
	}
	wg.Wait()
	if observeErr != nil {
		return nil, observeErr
	}
	for _, l := range loops {
		ph.samples = append(ph.samples, l.samples...)
	}
	return ph, nil
}

// observe runs beside the loops of a recorded stretch. At every slice
// boundary it reads the fleet's CPU clock; on Topology B it also asks the
// daemon, once a second, which server owns each file set, so client
// latencies can be grouped by the server that served them.
func (ph *phase) observe(f *fleet, w workloadSpec, c caller, start time.Time) error {
	n := sliceSecs(ph.hi)
	for s := 0; s <= ph.hi; s++ {
		time.Sleep(time.Until(start.Add(time.Duration(s) * time.Second)))
		if s%n == 0 {
			var total time.Duration
			for _, p := range f.all() {
				d, err := cpuTime(p.cmd.Process.Pid)
				if err != nil {
					return err
				}
				total += d
			}
			ph.cpuAt = append(ph.cpuAt, total)
		}
		if !w.TopologyB || s == ph.hi {
			continue
		}
		row := make([]int, len(f.names))
		for i, name := range f.names {
			resp, err := c.Call(wire.Request{Op: wire.OpOwner, FileSet: name})
			if err != nil {
				return fmt.Errorf("owner %s: %w", name, err)
			}
			row[i] = resp.Owner
		}
		ph.owners = append(ph.owners, row)
	}
	return nil
}

// --- statistics ------------------------------------------------------------

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailQuantile is the highest quantile, up to 0.99, that still has at least
// ten samples beyond it.
func tailQuantile(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	if n <= 20 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

// quantileOf reads quantile q from sorted durations (nearest rank).
func quantileOf(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies returns the sorted latencies of one op class (nil = all).
func (ph *phase) latencies(kind *opKind) []time.Duration {
	out := make([]time.Duration, 0, len(ph.samples))
	for _, s := range ph.samples {
		if kind == nil || s.kind == *kind {
			out = append(out, s.lat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// opsPerSecond is the median of the one-second buckets of completions, so
// a host stall moves one bucket, not the result.
func (ph *phase) opsPerSecond() float64 {
	buckets := make([]float64, ph.hi-ph.lo)
	for _, s := range ph.samples {
		if i := int(s.end/time.Second) - ph.lo; i >= 0 && i < len(buckets) {
			buckets[i]++
		}
	}
	return median(buckets)
}

// balanceSpread is max/min over servers of the mean client latency on the
// file sets each owned: the paper's Fig. 6/8 reading taken from outside.
// ownerOf maps (second, file set) to a server; servers with fewer than ten
// samples are left out.
func (ph *phase) balanceSpread(ownerOf func(sec, fs int) int) float64 {
	sum := map[int]time.Duration{}
	n := map[int]int{}
	for _, s := range ph.samples {
		o := ownerOf(int(s.end/time.Second), s.fs)
		sum[o] += s.lat
		n[o]++
	}
	lo, hi := 0.0, 0.0
	for o, c := range n {
		if c < 10 {
			continue
		}
		mean := float64(sum[o]) / float64(c)
		if lo == 0 || mean < lo {
			lo = mean
		}
		if mean > hi {
			hi = mean
		}
	}
	if lo == 0 {
		return 0
	}
	return hi / lo
}

// ownerFunc resolves sample ownership for the phase.
func (ph *phase) ownerFunc(f *fleet) func(sec, fs int) int {
	if len(ph.owners) == 0 {
		return func(_, fs int) int { return f.owner[fs] }
	}
	return func(sec, fs int) int {
		return ph.owners[min(sec, len(ph.owners)-1)][fs]
	}
}
