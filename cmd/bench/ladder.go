package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"anufs/internal/core"
	"anufs/internal/experiment"
	"anufs/internal/journal"
	"anufs/internal/live"
	"anufs/internal/metaserver"
	"anufs/internal/placement"
	"anufs/internal/rng"
	"anufs/internal/sdk"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// The per-layer ladder. With the fleet otherwise idle, the workload's own
// op stream is driven at concurrency 1 down ever-deeper public entry
// points: sdk client, router, connection to the owner, then in-process
// live cluster, metaserver, durable disk, journal, and finally the bench's
// own equal-size write+fsync. Every call is a span; a rung's parent is the
// rung above; a layer's self time is its rung's median minus the next
// rung's. No product code is touched: the layers are measured from outside.

// span is one recorded call, written to -spans at exit.
type span struct {
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// recorder hands out span IDs; the spans themselves are kept by whoever
// records them (loops, ladder) and merged at the end, so recording takes
// no lock.
type recorder struct{ next atomic.Uint64 }

// span builds a span under parent (0 = the root of a new trace).
func (r *recorder) span(parent uint64, name, layer string, t0, t1 time.Time) span {
	id := r.next.Add(1)
	trace := parent
	if parent == 0 {
		trace = id
	}
	return span{Trace: trace, ID: id, Parent: parent, Name: name, Layer: layer,
		StartNs: t0.UnixNano(), DurNs: int64(t1.Sub(t0))}
}

// rung is one measured ladder step.
type rung struct {
	Name   string
	Layer  string
	N      int
	Median time.Duration
}

const rungMaxOps = 2000

// ladder holds the state shared by the rungs of one workload's descent.
type ladder struct {
	w      workloadSpec
	f      *fleet
	stream *opStream
	led    *ledger
	write  bool // primary op class: durable write, else stat
	budget time.Duration
	rec    *recorder
	spans  []span
	trace  uint64 // the descent's trace: the span ID of its first rung
	parent uint64 // span ID of the rung above
	rungs  map[string]rung
	order  []string
	pairs  []codecPair
}

// serves reports whether the primary op class addresses file set fs: on
// mixed-tenants the writers' ladder stays on the hot volume.
func (l *ladder) serves(fs int) bool {
	return l.w.Name != wlMixedTenants || fs < l.w.Volumes[0].FileSets
}

// nextOp draws the next op of the primary class. Durable descents stay on
// file sets daemon 0 owns — the full path, standby ack included; a rung
// whose median straddled the two daemons' modes would not be steady.
func (l *ladder) nextOp() op { return l.nextOpOn(0) }

func (l *ladder) nextOpOn(daemon int) op {
	for {
		o := l.stream.next()
		if (o.Kind == opUpdate) == l.write && (!l.write || l.f.owner[o.FileSet] == daemon) {
			return o
		}
	}
}

// measure runs fn for the rung's budget (or rungMaxOps calls) and records
// the rung under name. fn returns the part of the call that counts, so a
// rung can exclude its own preparation; parts, when non-nil, receives
// named sub-timings that become rungs of their own, outside the descent.
func (l *ladder) measure(name, layer string, fn func(o op, parts map[string]time.Duration) (time.Duration, error)) error {
	start := time.Now()
	rungID := l.rec.next.Add(1)
	if l.trace == 0 {
		l.trace = rungID
	}
	var durs []time.Duration
	sub := map[string][]time.Duration{}
	for len(durs) < rungMaxOps && (len(durs) < 5 || time.Since(start) < l.budget) {
		parts := map[string]time.Duration{}
		t0 := time.Now()
		d, err := fn(l.nextOp(), parts)
		if err != nil {
			return fmt.Errorf("ladder rung %s: %w", name, err)
		}
		durs = append(durs, d)
		sp := l.rec.span(rungID, name, layer, t0, t0.Add(d))
		sp.Trace = l.trace
		l.spans = append(l.spans, sp)
		for k, v := range parts {
			sub[k] = append(sub[k], v)
		}
	}
	l.spans = append(l.spans, span{Trace: l.trace, ID: rungID, Parent: l.parent, Name: "rung:" + name, Layer: layer,
		StartNs: start.UnixNano(), DurNs: int64(time.Since(start))})
	l.parent = rungID
	l.put(rung{Name: name, Layer: layer, N: len(durs), Median: medianDur(durs)})
	for k, v := range sub {
		l.put(rung{Name: k, Layer: layer, N: len(v), Median: medianDur(v)})
	}
	return nil
}

func (l *ladder) put(r rung) {
	if _, seen := l.rungs[r.Name]; !seen {
		l.order = append(l.order, r.Name)
	}
	l.rungs[r.Name] = r
}

func (l *ladder) med(name string) time.Duration { return l.rungs[name].Median }

func medianDur(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// timed runs fn and returns how long it took.
func timed(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// ack notes a ladder write in the ledger, so the final read-back and the
// crash check cover the ladder's writes too.
func (l *ladder) ack(o op) {
	if o.Kind == opUpdate {
		l.led.acked[[2]int{o.FileSet, o.Path}] = o.Seq
	}
}

// calls measures a rung each of whose calls is one request to the fleet.
func (l *ladder) calls(name, layer string, do func(o op) error) error {
	return l.measure(name, layer, func(o op, _ map[string]time.Duration) (time.Duration, error) {
		d, err := timed(func() error { return do(o) })
		l.ack(o)
		return d, err
	})
}

// Rung names. The descent order differs per workload; these are the keys
// the layer table and the per-layer metrics read.
const (
	rSDK    = "sdk.Client.Update"
	rRoute  = "fleet.Router.Forward"
	rGW     = "sdk.Pool.Call(gateway)"
	rConn   = "sdk.Conn.Call(owner)"
	rConnNS = "sdk.Conn.Call(owner without standby)"
	rPing   = "sdk.Conn.Ping"
	rLive   = "live.Cluster"
	rLiveOp = "live.Cluster op"
	rLiveCk = "live.Cluster.Checkpoint"
	rMeta   = "metaserver.Server"
	rMetaOp = "metaserver.Server op"
	rDisk   = "sharedisk.Durable.Flush"
	rLog    = "journal.Journal.LogFlush"
	rFloor  = "write+fsync floor"
)

// fleetRungs measures the rungs that cross process boundaries.
func (l *ladder) fleetRungs() error {
	w, f := l.w, l.f
	opts := sdk.Options{PoolSize: 1, HealthInterval: -1, Timeout: callTimeout}
	// The root rung is one of the workload's own clients; on Topology B
	// that is the connection to the owner itself, measured below.
	if !w.TopologyB {
		root, err := newClients(w, f, 1, 1, nil)
		if err != nil {
			return err
		}
		defer closeClients(root)
		name, layer := rGW, "gateway"
		if root[0].sdk != nil {
			name, layer = rSDK, "sdk"
		}
		if err := l.calls(name, layer, func(o op) error { _, err := root[0].do(o); return err }); err != nil {
			return err
		}
		if cl := root[0].sdk; cl != nil {
			if err := l.calls(rRoute, "fleet", func(o op) error {
				_, err := answerOf(cl.Router().Forward(requestFor(w, f.names, o)))
				return err
			}); err != nil {
				return err
			}
		}
	}
	conns := make([]*sdk.Conn, len(f.daemons))
	for i, d := range f.daemons {
		c, err := sdk.Dial(d.addr, opts)
		if err != nil {
			return err
		}
		defer c.Close()
		conns[i] = c
	}
	ownerConn := func(o op) *sdk.Conn {
		if w.TopologyB {
			return conns[0]
		}
		return conns[f.owner[o.FileSet]]
	}
	call := func(o op) (time.Duration, error) {
		req := requestFor(w, f.names, o)
		var resp wire.Response
		d, err := timed(func() (err error) {
			resp, err = ownerConn(o).Call(req)
			_, err = answerOf(resp, err)
			return err
		})
		l.ack(o)
		if len(l.pairs) < codecSample {
			l.pairs = append(l.pairs, codecPair{req: req, resp: resp})
		}
		return d, err
	}
	if err := l.measure(rConn, "wire", func(o op, parts map[string]time.Duration) (time.Duration, error) {
		if l.write {
			// The same call against daemon 1, which has no standby: the
			// difference is what semi-sync replication adds.
			d, err := call(l.nextOpOn(1))
			if err != nil {
				return 0, err
			}
			parts[rConnNS] = d
		}
		return call(o)
	}); err != nil {
		return err
	}
	// The ping floor is not part of the descent (it takes no op); it is
	// subtracted inside the wire layer.
	parent := l.parent
	err := l.measure(rPing, "wire", func(o op, _ map[string]time.Duration) (time.Duration, error) {
		return timed(ownerConn(o).Ping)
	})
	l.parent = parent
	return err
}

// scratchRungs measures the in-process rungs on a scratch store built with
// the daemons' own options, in dir (same filesystem as the journals).
func (l *ladder) scratchRungs(dir string) error {
	w := l.w
	var disk sharedisk.Disk
	var durable *sharedisk.Durable
	var jnl *journal.Journal
	if w.TopologyB {
		disk = sharedisk.NewStore(0)
	} else {
		j, st, _, err := journal.Open(filepath.Join(dir, "scratch-journal"), journal.Options{FsyncInterval: shippedFsyncInterval})
		if err != nil {
			return err
		}
		defer j.Close()
		jnl, durable = j, sharedisk.NewDurable(st, j, shippedSnapshotEvery)
		disk = durable
	}
	// The live cluster serves the primary class's file sets under their
	// fleet names, so the stream's ops apply verbatim.
	records := 0
	for fs, name := range l.f.names {
		if l.serves(fs) {
			if err := disk.CreateFileSet(name); err != nil {
				return err
			}
			records = l.f.records[fs]
		}
	}
	cfg := live.DefaultConfig()
	speeds := map[int]float64{0: 1}
	cfg.OpCost = 0
	if w.TopologyB {
		speeds, cfg.OpCost = shippedSpeeds, shippedOpCost
	}
	cluster, err := live.NewCluster(cfg, disk, speeds)
	if err != nil {
		return err
	}
	defer cluster.Stop()
	creates := func(fs, n int) []live.BatchOp {
		ops := make([]live.BatchOp, n)
		for p := range ops {
			ops[p] = live.BatchOp{Kind: "create", Path: pathName(p), Rec: recordFor(fs, p, 0)}
		}
		return ops
	}
	for fs, name := range l.f.names {
		if !l.serves(fs) {
			continue
		}
		if _, err := cluster.Batch(name, creates(fs, l.f.records[fs])); err != nil {
			return err
		}
		if err := cluster.Checkpoint(name); err != nil {
			return err
		}
	}
	if err := l.measure(rLive, "live", func(o op, parts map[string]time.Duration) (time.Duration, error) {
		name, path := l.f.names[o.FileSet], pathName(o.Path)
		if !l.write {
			return timed(func() error { _, err := cluster.Stat(name, path); return err })
		}
		// What wire.Server.handleBatch does for a durable batch of one.
		dOp, err := timed(func() error {
			_, err := cluster.Batch(name, []live.BatchOp{{Kind: "update", Path: path, Rec: recordFor(o.FileSet, o.Path, o.Seq)}})
			return err
		})
		if err != nil {
			return 0, err
		}
		dCk, err := timed(func() error { return cluster.Checkpoint(name) })
		parts[rLiveOp], parts[rLiveCk] = dOp, dCk
		return dOp + dCk, err
	}); err != nil {
		return err
	}

	const metaFS = "rung-meta"
	if err := disk.CreateFileSet(metaFS); err != nil {
		return err
	}
	ms := metaserver.New(100, disk)
	if err := ms.Acquire(metaFS); err != nil {
		return err
	}
	for p := 0; p < records; p++ {
		if err := ms.Create(metaFS, pathName(p), recordFor(0, p, 0)); err != nil {
			return err
		}
	}
	if err := ms.Checkpoint(metaFS); err != nil {
		return err
	}
	if err := l.measure(rMeta, "metaserver", func(o op, parts map[string]time.Duration) (time.Duration, error) {
		path := pathName(o.Path % records)
		if !l.write {
			d, err := timed(func() error { _, err := ms.Stat(metaFS, path); return err })
			parts[rMetaOp] = d
			return d, err
		}
		dOp, err := timed(func() error { return ms.Update(metaFS, path, recordFor(o.FileSet, o.Path, o.Seq)) })
		if err != nil {
			return 0, err
		}
		dCk, err := timed(func() error { return ms.Checkpoint(metaFS) })
		parts[rMetaOp] = dOp
		return dOp + dCk, err
	}); err != nil {
		return err
	}
	if !l.write || durable == nil {
		return nil
	}

	const diskFS, logFS = "rung-disk", "rung-log"
	if err := durable.CreateFileSet(diskFS); err != nil {
		return err
	}
	v, err := durable.Version(diskFS)
	if err != nil {
		return err
	}
	im := sharedisk.Image{Version: v, Records: make(map[string]sharedisk.Record, records)}
	for p := 0; p < records; p++ {
		im.Records[pathName(p)] = recordFor(0, p, 0)
	}
	if err := l.measure(rDisk, "sharedisk", func(o op, _ map[string]time.Duration) (time.Duration, error) {
		im.Records[pathName(o.Path%records)] = recordFor(o.FileSet, o.Path, o.Seq)
		return timed(func() (err error) {
			im.Version, err = durable.Flush(diskFS, im)
			return err
		})
	}); err != nil {
		return err
	}
	if err := l.measure(rLog, "journal", func(o op, _ map[string]time.Duration) (time.Duration, error) {
		im.Records[pathName(o.Path%records)] = recordFor(o.FileSet, o.Path, o.Seq)
		return timed(func() error { return jnl.LogFlush(logFS, im) })
	}); err != nil {
		return err
	}
	// The floor: the bench's own append of as many bytes as one such entry,
	// then fsync, in the same directory.
	entry := journal.EncodeEntry(journal.Entry{Kind: journal.KindFlush, FileSet: logFS, Image: im})
	floor, err := os.CreateTemp(dir, "fsync-floor-")
	if err != nil {
		return err
	}
	defer floor.Close()
	if err := l.measure(rFloor, "journal", func(op, map[string]time.Duration) (time.Duration, error) {
		return timed(func() error {
			if _, err := floor.Write(entry); err != nil {
				return err
			}
			return floor.Sync()
		})
	}); err != nil {
		return err
	}
	l.put(rung{Name: "journal.EncodeEntry", Layer: "journal", N: microIters,
		Median: perCall(microIters/8, func() {
			sinkBytes = journal.EncodeEntry(journal.Entry{Kind: journal.KindFlush, FileSet: logFS, Image: im})
		})})
	return nil
}

// --- micro measurements ------------------------------------------------------

const (
	codecSample = 256
	microIters  = 4096
)

// Sinks keep the compiler from discarding measured calls.
var (
	sinkBytes []byte
	sinkInt   int
)

// perCall times n calls of fn and returns the mean per call.
func perCall(n int, fn func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(t0) / time.Duration(n)
}

// codecPair is one real request and the response the owner gave it.
type codecPair struct {
	req  wire.Request
	resp wire.Response
}

// codecStats is the wire codec measured over the workload's real messages,
// each side doing what sdk.Conn and the frame server do: the fast codec,
// and encoding/json when it declines.
type codecStats struct {
	encReq, decReq, encResp, decResp time.Duration
	fastpath                         float64
	reqBytes, respBytes              float64
}

func measureCodec(pairs []codecPair) codecStats {
	var st codecStats
	if len(pairs) == 0 {
		return st
	}
	reqs := make([][]byte, len(pairs))
	resps := make([][]byte, len(pairs))
	fast, calls := 0, 0
	var buf []byte
	var dec wire.Decoder
	count := func(ok bool) {
		calls++
		if ok {
			fast++
		}
	}
	for i := range pairs {
		p := &pairs[i]
		out, ok := wire.AppendRequest(buf[:0], &p.req)
		if !ok {
			out, _ = json.Marshal(&p.req) // cannot fail: the request was built or decoded here
		}
		count(ok)
		reqs[i] = append([]byte(nil), out...)
		out, ok = wire.AppendResponse(buf[:0], &p.resp)
		if !ok {
			out, _ = json.Marshal(&p.resp)
		}
		count(ok)
		resps[i] = append([]byte(nil), out...)
		st.reqBytes += float64(len(reqs[i])) / float64(len(pairs))
		st.respBytes += float64(len(resps[i])) / float64(len(pairs))
	}
	var req wire.Request
	var resp wire.Response
	for i := range pairs {
		count(dec.DecodeRequest(reqs[i], &req))
		count(dec.DecodeResponse(resps[i], &resp))
	}
	st.fastpath = float64(fast) / float64(calls)
	rounds := max(1, microIters/len(pairs))
	each := func(fn func(i int)) time.Duration {
		i := 0
		return perCall(rounds*len(pairs), func() { fn(i % len(pairs)); i++ })
	}
	st.encReq = each(func(i int) {
		if out, ok := wire.AppendRequest(buf[:0], &pairs[i].req); ok {
			buf = out
		} else {
			sinkBytes, _ = json.Marshal(&pairs[i].req)
		}
	})
	st.encResp = each(func(i int) {
		if out, ok := wire.AppendResponse(buf[:0], &pairs[i].resp); ok {
			buf = out
		} else {
			sinkBytes, _ = json.Marshal(&pairs[i].resp)
		}
	})
	st.decReq = each(func(i int) {
		if !dec.DecodeRequest(reqs[i], &req) {
			req = wire.Request{}
			_ = json.Unmarshal(reqs[i], &req) // our own encoding
		}
	})
	st.decResp = each(func(i int) {
		if !dec.DecodeResponse(resps[i], &resp) {
			resp = wire.Response{}
			_ = json.Unmarshal(resps[i], &resp)
		}
	})
	return st
}

// coreStats are the placement/tuning readings that only hetero-balance is
// expected to move.
type coreStats struct {
	ownerLookup, lookup, tuneRound time.Duration
	simAnuOverPrescient            float64
	movesPerRound                  float64
}

// measureCore times the placement lookup every routed op pays; with full
// it adds the ANU readings (mapper lookup, a tuning round, the fig8
// simulation), which only hetero-balance is expected to move.
func measureCore(names []string, cm *placement.ClusterMap, seed uint64, full bool) (coreStats, error) {
	var st coreStats
	i := 0
	if cm != nil {
		st.ownerLookup = perCall(microIters, func() {
			d, _ := cm.Owner(names[i%len(names)])
			sinkInt, i = d.ID, i+1
		})
	}
	if !full {
		return st, nil
	}
	ids := make([]int, 0, len(shippedSpeeds))
	for id := range shippedSpeeds {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	m, err := core.NewMapper(core.Defaults(), ids)
	if err != nil {
		return st, err
	}
	st.lookup = perCall(microIters, func() {
		sinkInt, _ = m.Locate(names[i%len(names)])
		i++
	})
	// Tuning rounds over reports a heterogeneous cluster would send: mean
	// latency inversely proportional to speed, jittered.
	del := core.NewDelegate(core.Defaults())
	r := rng.NewStream(seed)
	var tuneErr error
	st.tuneRound = perCall(256, func() {
		reports := make([]core.LatencyReport, len(ids))
		for k, id := range ids {
			reports[k] = core.LatencyReport{ServerID: id, MeanLatency: r.Uniform(0.5, 1.5) / shippedSpeeds[id], Requests: 100}
		}
		if _, err := del.Update(m, reports); err != nil {
			tuneErr = err
		}
	})
	if tuneErr != nil {
		return st, tuneErr
	}
	out, err := experiment.RunByID("fig8", experiment.Quick)
	if err != nil {
		return st, err
	}
	steady := map[string]float64{}
	for _, row := range out.SummaryRows() {
		steady[row.Label] = row.Summary.SteadyMean
	}
	if steady["prescient"] > 0 {
		st.simAnuOverPrescient = steady["anu"] / steady["prescient"]
	}
	for _, run := range out.Runs {
		if run.Label == "anu" && len(run.Result.MovesByWindow) > 0 {
			st.movesPerRound = float64(run.Result.Moves) / float64(len(run.Result.MovesByWindow))
		}
	}
	return st, nil
}
