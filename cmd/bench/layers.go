package main

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"anufs/internal/sdk"
)

// Per-layer metrics and the layer table: ladder self times, plus growth of
// the counters and histograms the daemons already export, over the traced
// window.

// traceData is everything the traced part of a run gathered.
type traceData struct {
	lad         *ladder
	win         window           // the traced window's two snapshots
	traced      *phase           // its samples
	clientCtrs  map[string]int64 // the sdk clients' own registry
	untracedOps float64
	crash       crashReport
	codec       codecStats
	core        coreStats
}

// layerRow is one row of the ROADMAP item 1 table.
type layerRow struct {
	Layer  string  `json:"layer"`
	Source string  `json:"source"`
	SelfUs float64 `json:"self_us"`
	Share  float64 `json:"share"`
}

// layerTable turns the descent into rows whose self times, with the
// residue, sum to the root rung. A negative difference (a deeper rung that
// measured slower than the one above it) is clamped to zero and shows up
// in the residue instead.
func layerTable(l *ladder) (rows []layerRow, rootUs, residueUs float64) {
	var descent []string
	for _, name := range []string{rSDK, rRoute, rGW, rConn, rLive, rMeta, rDisk, rLog, rFloor} {
		if _, ok := l.rungs[name]; ok {
			descent = append(descent, name)
		}
	}
	if len(descent) == 0 {
		return nil, 0, 0
	}
	add := func(layer, source string, d time.Duration) {
		rows = append(rows, layerRow{Layer: layer, Source: source, SelfUs: max(0, us(d))})
	}
	for i, name := range descent {
		var below time.Duration
		source := name
		if i+1 < len(descent) {
			below = l.med(descent[i+1])
			source += " - " + descent[i+1]
		}
		self := l.med(name) - below
		if name == rConn {
			// The hop to the owner splits into the connection's round-trip
			// floor and what the daemon's wire server adds around the
			// cluster call.
			add("wire", rPing+" (rtt floor)", l.med(rPing))
			self -= l.med(rPing)
			source += " - ping"
			if _, ok := l.rungs[rConnNS]; ok {
				ship := max(0, l.med(rConn)-l.med(rConnNS))
				add("replica", rConn+" - "+rConnNS, ship)
				self -= ship
				source += " - replica"
			}
			add("wire", source+" (server)", self)
			continue
		}
		add(l.rungs[name].Layer, source, self)
	}
	rootUs = us(l.med(descent[0]))
	sum := 0.0
	for _, r := range rows {
		sum += r.SelfUs
	}
	residueUs = rootUs - sum
	for i := range rows {
		rows[i].Share = rows[i].SelfUs / rootUs
	}
	return rows, rootUs, residueUs
}

func printLayerTable(w io.Writer, workload string, l *ladder, rows []layerRow, rootUs, residueUs float64) {
	fmt.Fprintf(w, "\nlayer table, %s (concurrency 1, idle fleet; medians)\n", workload)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tself us\tshare\tsource")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f%%\t%s\n", r.Layer, r.SelfUs, 100*r.Share, r.Source)
	}
	fmt.Fprintf(tw, "bench.residue_us\t%.1f\t%.1f%%\troot - sum of rows\n", residueUs, 100*residueUs/rootUs)
	fmt.Fprintf(tw, "root rung\t%.1f\t100%%\t\n", rootUs)
	tw.Flush()
	fmt.Fprintln(w, "rungs:")
	tw = tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, name := range l.order {
		r := l.rungs[name]
		fmt.Fprintf(tw, "  %s\t%.1f us\tn=%d\n", r.Name, us(r.Median), r.N)
	}
	tw.Flush()
}

// perLayerMetrics computes every metric of the perLayer table; a layer the
// workload does not exercise reads 0.
func perLayerMetrics(w workloadSpec, f *fleet, t *traceData, e2e map[string]float64, rootUs, residueUs float64) (map[string]float64, []string) {
	m := map[string]float64{}
	for _, spec := range perLayer {
		m[spec.Name] = 0
	}
	l, win := t.lad, t.win
	has := func(name string) bool { _, ok := l.rungs[name]; return ok }
	diff := func(a, b string) float64 { return us(l.med(a) - l.med(b)) }
	ops := float64(len(t.traced.samples))
	perOp := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / ops
	}
	var data []string
	for _, d := range f.daemons {
		data = append(data, d.name)
	}
	// Histograms of the data daemons and the gateway; the standby's own
	// wire and journal series would blur every quantile.
	quant := func(metric string, q float64) float64 {
		d, _ := win.quantile(metric, q, append(data, "gw")...)
		return us(d)
	}

	if has(rSDK) {
		m["sdk.call_self_us"] = diff(rSDK, rRoute)
		m["fleet.route_self_us"] = diff(rRoute, rConn)
	}
	if b := t.clientCtrs[sdk.CtrBatchesSent]; b > 0 {
		m["sdk.batch_fold"] = float64(t.clientCtrs[sdk.CtrBatchedOps]) / float64(b)
	}
	m["sdk.pool_redials"] = float64(t.clientCtrs[sdk.CtrPoolRedials])

	if has(rGW) {
		m["gateway.hop_self_us"] = diff(rGW, rConn)
		m["gateway.cpu_us_per_op"] = perOp(us(win.cpu("gw")))
		m["gateway.hist_p50_us"] = quant("anufs_gw_request_seconds", 0.5)
		m["gateway.errors"] = win.counter("anufs_gw_errors", "gw")
	}

	m["fleet.wrong_owner_rejects"] = win.counter("anufs_fleet_wrong_owner_rejects", data...)
	m["fleet.map_refreshes"] = win.counter("anufs_fleet_map_refreshes", data...)
	m["fleet.quota_denials"] = win.counter("anufs_fleet_quota_denials", data...)

	m["wire.rtt_floor_us"] = us(l.med(rPing))
	m["wire.server_self_us"] = us(l.med(rConn) - l.med(rPing) - l.med(rLive))
	if has(rConnNS) {
		m["wire.server_self_us"] = us(l.med(rConnNS) - l.med(rPing) - l.med(rLive))
	}
	m["wire.enc_req_ns"] = float64(t.codec.encReq)
	m["wire.dec_req_ns"] = float64(t.codec.decReq)
	m["wire.enc_resp_ns"] = float64(t.codec.encResp)
	m["wire.dec_resp_ns"] = float64(t.codec.decResp)
	m["wire.fastpath_ratio"] = t.codec.fastpath
	m["wire.req_bytes"] = t.codec.reqBytes
	m["wire.resp_bytes"] = t.codec.respBytes
	m["wire.hist_p50_us"] = quant("anufs_wire_request_seconds", 0.5)
	m["wire.errors"] = win.counter("anufs_wire_errors", data...)
	m["wire.bad_frames"] = win.counter("anufs_wire_bad_frames", data...)

	m["live.queue_apply_us"] = us(l.med(rLive))
	if has(rLiveOp) {
		m["live.queue_apply_us"] = us(l.med(rLiveOp))
		m["live.checkpoint_us"] = us(l.med(rLiveCk))
	}
	m["live.self_us"] = diff(rLive, rMeta)
	m["live.queue_wait_p50_us"] = quant("anufs_live_queue_wait_seconds", 0.5)
	m["live.queue_wait_p99_us"] = quant("anufs_live_queue_wait_seconds", 0.99)
	m["live.moves"] = win.counter("anufs_live_moves", data...)
	m["live.tune_rounds"] = win.counter("anufs_live_tune_rounds", data...)

	m["metaserver.apply_ns"] = float64(l.med(rMetaOp))
	if has(rDisk) {
		m["metaserver.checkpoint_self_us"] = us(l.med(rMeta) - l.med(rMetaOp) - l.med(rDisk))
		m["sharedisk.flush_self_us"] = diff(rDisk, rLog)
		m["journal.logflush_us"] = us(l.med(rLog))
		m["journal.fsync_floor_us"] = us(l.med(rFloor))
		m["journal.self_us"] = diff(rLog, rFloor)
		m["journal.encode_ns"] = float64(l.med("journal.EncodeEntry"))
	}
	m["sharedisk.image_records"] = t.crash.imageRecords

	// Journal counters of the data daemons; the standby's journal is the
	// replica's business and would double every figure.
	fsyncs := win.counter("anufs_journal_fsyncs", data...)
	if fsyncs > 0 {
		m["journal.records_per_fsync"] = win.counter("anufs_journal_records_appended", data...) / fsyncs
	}
	if dw := durableWrites(w, t.traced); dw > 0 {
		m["journal.fsyncs_per_write"] = fsyncs / float64(dw)
	} else {
		m["journal.fsyncs_per_write"] = fsyncs // any fsync at all is the finding here
	}
	m["journal.snapshots"] = win.counter("anufs_journal_snapshots", data...)
	m["journal.recover_ms"] = ms(t.crash.recover)
	m["journal.fsync_p50_us"] = quant("anufs_journal_fsync_seconds", 0.5)
	m["journal.fsync_p99_us"] = quant("anufs_journal_fsync_seconds", 0.99)
	m["journal.commit_wait_p50_us"] = quant("anufs_journal_commit_wait_seconds", 0.5)
	m["journal.commit_wait_p99_us"] = quant("anufs_journal_commit_wait_seconds", 0.99)

	if w.CrashCheck {
		m["replica.sync_extra_us"] = syncExtra(f, t.traced)
	}
	m["replica.ship_rtt_p50_us"] = quant("anufs_replica_ship_rtt_seconds", 0.5)
	m["replica.lag_p99_us"] = quant("anufs_replica_replication_lag_seconds", 0.99)

	m["placement.owner_lookup_ns"] = float64(t.core.ownerLookup)
	m["core.lookup_ns"] = float64(t.core.lookup)
	m["core.tune_round_us"] = us(t.core.tuneRound)
	m["core.sim_anu_over_prescient"] = t.core.simAnuOverPrescient
	m["core.moves_per_round"] = t.core.movesPerRound

	if t.untracedOps > 0 {
		m["obs.traced_ratio"] = t.traced.opsPerSecond() / t.untracedOps
	}
	m["bench.residue_us"] = residueUs
	if self := win.b.self - win.a.self; self+win.cpu() > 0 {
		m["bench.generator_cpu_share"] = float64(self) / float64(self+win.cpu())
	}
	for _, spec := range endToEnd {
		if !spec.Contract {
			m["e2e."+spec.Name] = e2e[spec.Name]
		}
	}
	m["e2e.acked_lost"] = float64(t.crash.ackedLost)

	var findings []string
	if rootUs > 0 && (residueUs > 0.15*rootUs || residueUs < -0.15*rootUs) {
		findings = append(findings, fmt.Sprintf("layer table residue %.1f us is %.0f%% of the root rung %.1f us: the ladder does not explain the root", residueUs, 100*residueUs/rootUs, rootUs))
	}
	if !w.CrashCheck && w.Name != wlHetero && fsyncs > 0 {
		findings = append(findings, fmt.Sprintf("%v journal fsyncs during %s, predicted 0", fsyncs, w.Name))
	}
	return m, findings
}

// durableWrites counts the window's acked durable writes.
func durableWrites(w workloadSpec, ph *phase) int {
	if !w.CrashCheck {
		return 0
	}
	n := 0
	for _, s := range ph.samples {
		if s.kind == opUpdate {
			n++
		}
	}
	return n
}

// syncExtra is the median write latency on file sets owned by daemon 0
// (which ships every append to the standby and waits for its ack) minus
// that on daemon 1 (which has no standby): what semi-sync replication
// costs a write, seen from the client.
func syncExtra(f *fleet, ph *phase) float64 {
	var by [2][]float64
	for _, s := range ph.samples {
		if s.kind == opUpdate && f.owner[s.fs] < 2 {
			by[f.owner[s.fs]] = append(by[f.owner[s.fs]], us(s.lat))
		}
	}
	if len(by[0]) == 0 || len(by[1]) == 0 {
		return 0
	}
	return median(by[0]) - median(by[1])
}
