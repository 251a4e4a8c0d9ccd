package main

import "time"

// This file is the benchmark's definition as data: the four workloads, the
// end-to-end metrics with their regression bounds, and the per-layer metrics
// with the layer each belongs to and the (end-to-end metric, workload) it is
// expected to move. BENCHMARK.json, the README tables, -compare and the
// printed reports are all checked against these tables.

// Workload names; later issues refer to them.
const (
	wlSmallWrite   = "small-write"
	wlReadMostly   = "read-mostly"
	wlMixedTenants = "mixed-tenants"
	wlHetero       = "hetero-balance"
)

// workloadSpec fixes one workload's topology, population and op mix. Every
// daemon tunable not derived from these fields stays at the binary's
// shipped default.
type workloadSpec struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json
	// Topology B is the single heterogeneous daemon; everything else is
	// Topology A (2 journaled fleet daemons, semi-sync standby, gateway).
	TopologyB  bool
	ViaGateway bool
	// InFlight is the number of closed loops; 0 means C = min(nproc, 4).
	InFlight   int
	WarmupSecs int
	// CrashCheck: after the run every daemon is SIGKILLed and each journal
	// directory replayed; acked durable writes must all be there.
	CrashCheck bool
	// Gated workloads are listed in BENCHMARK.json, where every listed
	// end-to-end metric must stay steady inside its bound (at most 0.25)
	// across ten seeds. Two are not. hetero-balance: live ANU under this
	// load never settles (README, finding h). read-mostly: CPU-bound on
	// the baseline host's two shared vCPUs, its throughput spreads up to
	// 23-39% run to run (README, "Spread and bounds"). Both stay workloads
	// of the program, of -workload all, of -compare and of the baseline.
	Gated   bool
	Volumes []volumeSpec
}

// volumeSpec is one group of equally sized file sets. Name "" is the
// default volume with the vol00.. file sets anufsd pre-creates itself.
type volumeSpec struct {
	Name     string
	FileSets int
	Records  int
}

var workloads = []workloadSpec{
	{
		Name:       wlSmallWrite,
		Why:        "durable 1-record updates straight from the sdk: batcher, router, journal group commit, fsync, ship and standby ack do the work; gateway and fast codec do none",
		WarmupSecs: 3, CrashCheck: true, Gated: true,
		Volumes: []volumeSpec{{FileSets: 16, Records: 64}},
	},
	{
		Name:       wlReadMostly,
		Why:        "95% stat / 5% volatile update through the gateway, Zipf paths: gateway, codec, framing, owner queue and lookup do the work; the journal is never touched",
		ViaGateway: true, WarmupSecs: 3,
		Volumes: []volumeSpec{{FileSets: 16, Records: 1024}},
	},
	{
		Name:       wlMixedTenants,
		Why:        "durable writers on 4096-record file sets beside stat readers on 64-record ones, same daemons: image clone/encode, write amplification and reads queued behind fsync show here",
		ViaGateway: true, WarmupSecs: 3, CrashCheck: true, Gated: true,
		Volumes: []volumeSpec{{Name: "hot", FileSets: 8, Records: 4096}, {Name: "cold", FileSets: 8, Records: 64}},
	},
	{
		Name:      wlHetero,
		Why:       "the paper's regime on live code: Zipf stats, 32 in flight, against one daemon whose servers run at speeds 1,3,5,7,9; ANU tuning and live moves do the work, wire and journal are noise",
		TopologyB: true, InFlight: 32, WarmupSecs: 8,
		Volumes: []volumeSpec{{FileSets: 32, Records: 64}},
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec describes one named metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before -compare (and the driver) calls it a regression. The
	// values come from the run-to-run spread measured on the baseline host
	// (README, "Spread and bounds"), capped at the contract's 0.25. Zero on
	// a per-layer metric means "no bound"; fail_ratio is special-cased: it
	// may not rise at all.
	Bound float64
	// Contract metrics are listed under end_to_end in BENCHMARK.json: they
	// are non-zero on every gated workload and hold their bound there. The
	// others are end-to-end by nature but zero on HEAD or too noisy for any
	// allowed bound, so the contract line carries them on the per-layer
	// side as "e2e.<name>"; -compare still judges them.
	Contract bool
	Layer    string
	Moves    string // which end-to-end metric on which workload this should move
}

var endToEnd = []metricSpec{
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25, Contract: true},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "lat_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "read_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "write_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0},
	{Name: "fleet_cpu_us_per_op", Unit: "us/op", Better: "lower", Bound: 0.25},
	{Name: "journal_bytes_per_write", Unit: "B/write", Better: "lower", Bound: 0.02, Contract: true},
	{Name: "fleet_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10, Contract: true},
	{Name: "balance_spread", Unit: "ratio", Better: "lower", Bound: 0.20, Contract: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Contract: true},
}

var perLayer = []metricSpec{
	{Name: "sdk.call_self_us", Unit: "us", Better: "lower", Layer: "sdk", Moves: "write_p50_ms on small-write (the fixed BatchDelay lives here); none elsewhere"},
	{Name: "sdk.batch_fold", Unit: "ratio", Better: "higher", Layer: "sdk", Moves: "write_p50_ms, ops_per_s on small-write"},
	{Name: "sdk.pool_redials", Unit: "count", Better: "lower", Layer: "sdk", Moves: "must stay 0 in steady state"},

	{Name: "gateway.hop_self_us", Unit: "us", Better: "lower", Layer: "gateway", Moves: "read_p50_ms on read-mostly, mixed-tenants; none on small-write"},
	{Name: "gateway.cpu_us_per_op", Unit: "us/op", Better: "lower", Layer: "gateway", Moves: "fleet_cpu_us_per_op on read-mostly, mixed-tenants"},
	{Name: "gateway.hist_p50_us", Unit: "us", Better: "lower", Layer: "gateway", Moves: "read_p50_ms on read-mostly"},
	{Name: "gateway.errors", Unit: "count", Better: "lower", Layer: "gateway", Moves: "fail_ratio; must stay 0"},

	{Name: "fleet.route_self_us", Unit: "us", Better: "lower", Layer: "fleet", Moves: "lat_p50_ms on small-write"},
	{Name: "fleet.wrong_owner_rejects", Unit: "count", Better: "lower", Layer: "fleet", Moves: "must stay 0 in steady state"},
	{Name: "fleet.map_refreshes", Unit: "count", Better: "lower", Layer: "fleet", Moves: "must stay 0 in steady state"},
	{Name: "fleet.quota_denials", Unit: "count", Better: "lower", Layer: "fleet", Moves: "must stay 0 in steady state"},

	{Name: "wire.rtt_floor_us", Unit: "us", Better: "lower", Layer: "wire", Moves: "lat_p50_ms on read-mostly"},
	{Name: "wire.enc_req_ns", Unit: "ns", Better: "lower", Layer: "wire", Moves: "fleet_cpu_us_per_op on read-mostly"},
	{Name: "wire.dec_req_ns", Unit: "ns", Better: "lower", Layer: "wire", Moves: "fleet_cpu_us_per_op on read-mostly"},
	{Name: "wire.enc_resp_ns", Unit: "ns", Better: "lower", Layer: "wire", Moves: "fleet_cpu_us_per_op on read-mostly"},
	{Name: "wire.dec_resp_ns", Unit: "ns", Better: "lower", Layer: "wire", Moves: "fleet_cpu_us_per_op on read-mostly"},
	{Name: "wire.fastpath_ratio", Unit: "ratio", Better: "higher", Layer: "wire", Moves: "fleet_cpu_us_per_op; ~1 on read-mostly, ~0 on small-write"},
	{Name: "wire.req_bytes", Unit: "B", Better: "lower", Layer: "wire", Moves: "fleet_cpu_us_per_op on read-mostly"},
	{Name: "wire.resp_bytes", Unit: "B", Better: "lower", Layer: "wire", Moves: "fleet_cpu_us_per_op on read-mostly"},
	{Name: "wire.server_self_us", Unit: "us", Better: "lower", Layer: "wire", Moves: "lat_p50_ms on read-mostly; <= 2% of write_p50_ms on small-write"},
	{Name: "wire.hist_p50_us", Unit: "us", Better: "lower", Layer: "wire", Moves: "lat_p50_ms on read-mostly"},
	{Name: "wire.errors", Unit: "count", Better: "lower", Layer: "wire", Moves: "fail_ratio; must stay 0"},
	{Name: "wire.bad_frames", Unit: "count", Better: "lower", Layer: "wire", Moves: "fail_ratio; must stay 0"},

	{Name: "live.queue_apply_us", Unit: "us", Better: "lower", Layer: "live", Moves: "read_p50_ms on read-mostly; ops_per_s on hetero-balance"},
	{Name: "live.self_us", Unit: "us", Better: "lower", Layer: "live", Moves: "read_p99_ms on mixed-tenants"},
	{Name: "live.checkpoint_us", Unit: "us", Better: "lower", Layer: "live", Moves: "write_p50_ms on small-write, mixed-tenants"},
	{Name: "live.queue_wait_p50_us", Unit: "us", Better: "lower", Layer: "live", Moves: "read_p99_ms on mixed-tenants; balance_spread on hetero-balance"},
	{Name: "live.queue_wait_p99_us", Unit: "us", Better: "lower", Layer: "live", Moves: "read_p99_ms on mixed-tenants; balance_spread on hetero-balance"},
	{Name: "live.moves", Unit: "count", Better: "lower", Layer: "live", Moves: "balance_spread, ops_per_s on hetero-balance; 0 elsewhere"},
	{Name: "live.tune_rounds", Unit: "count", Better: "higher", Layer: "live", Moves: "balance_spread on hetero-balance"},

	{Name: "metaserver.apply_ns", Unit: "ns", Better: "lower", Layer: "metaserver", Moves: "fleet_cpu_us_per_op on read-mostly"},
	{Name: "metaserver.checkpoint_self_us", Unit: "us", Better: "lower", Layer: "metaserver", Moves: "write_p50_ms, fleet_cpu_us_per_op on mixed-tenants (4096 records); small on small-write"},

	{Name: "sharedisk.flush_self_us", Unit: "us", Better: "lower", Layer: "sharedisk", Moves: "write_p50_ms, fleet_cpu_us_per_op on mixed-tenants"},
	{Name: "sharedisk.image_records", Unit: "count", Better: "lower", Layer: "sharedisk", Moves: "journal_bytes_per_write on mixed-tenants"},

	{Name: "journal.logflush_us", Unit: "us", Better: "lower", Layer: "journal", Moves: "write_p50_ms on small-write"},
	{Name: "journal.encode_ns", Unit: "ns", Better: "lower", Layer: "journal", Moves: "fleet_cpu_us_per_op on mixed-tenants"},
	{Name: "journal.fsync_floor_us", Unit: "us", Better: "lower", Layer: "journal", Moves: "nothing the code controls: the disk's own write+fsync"},
	{Name: "journal.self_us", Unit: "us", Better: "lower", Layer: "journal", Moves: "write_p50_ms, write_p99_ms on small-write"},
	{Name: "journal.records_per_fsync", Unit: "ratio", Better: "higher", Layer: "journal", Moves: "ops_per_s on small-write"},
	{Name: "journal.fsyncs_per_write", Unit: "ratio", Better: "lower", Layer: "journal", Moves: "write_p50_ms on small-write; 0 on read-mostly"},
	{Name: "journal.snapshots", Unit: "count", Better: "lower", Layer: "journal", Moves: "write_p99_ms on small-write"},
	{Name: "journal.recover_ms", Unit: "ms", Better: "lower", Layer: "journal", Moves: "nothing end-to-end here: restart time"},
	{Name: "journal.fsync_p50_us", Unit: "us", Better: "lower", Layer: "journal", Moves: "write_p50_ms on small-write"},
	{Name: "journal.fsync_p99_us", Unit: "us", Better: "lower", Layer: "journal", Moves: "write_p99_ms on small-write"},
	{Name: "journal.commit_wait_p50_us", Unit: "us", Better: "lower", Layer: "journal", Moves: "write_p50_ms on small-write"},
	{Name: "journal.commit_wait_p99_us", Unit: "us", Better: "lower", Layer: "journal", Moves: "write_p99_ms on small-write"},

	{Name: "replica.sync_extra_us", Unit: "us", Better: "lower", Layer: "replica", Moves: "write_p99_ms, balance_spread on small-write"},
	{Name: "replica.ship_rtt_p50_us", Unit: "us", Better: "lower", Layer: "replica", Moves: "write_p99_ms on small-write"},
	{Name: "replica.lag_p99_us", Unit: "us", Better: "lower", Layer: "replica", Moves: "write_p99_ms on small-write"},

	{Name: "placement.owner_lookup_ns", Unit: "ns", Better: "lower", Layer: "placement", Moves: "nothing measurable: one map lookup per routed op"},
	{Name: "core.lookup_ns", Unit: "ns", Better: "lower", Layer: "core", Moves: "lat_p50_ms on hetero-balance only"},
	{Name: "core.tune_round_us", Unit: "us", Better: "lower", Layer: "core", Moves: "balance_spread on hetero-balance only"},
	{Name: "core.sim_anu_over_prescient", Unit: "ratio", Better: "lower", Layer: "core", Moves: "balance_spread on hetero-balance only (deterministic simulator reading)"},
	{Name: "core.moves_per_round", Unit: "ratio", Better: "lower", Layer: "core", Moves: "balance_spread, lat_p99_ms on hetero-balance only"},

	{Name: "obs.traced_ratio", Unit: "ratio", Better: "higher", Layer: "obs", Moves: "ops_per_s everywhere: the cost of the instruments"},
	{Name: "bench.residue_us", Unit: "us", Better: "lower", Layer: "bench", Moves: "nothing: root rung minus the layer rows; beyond 15% of the root it is a finding"},
	{Name: "bench.generator_cpu_share", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "everything on a 2-core host: the generator competes with the fleet"},

	// The end-to-end metrics BENCHMARK.json cannot list (see Contract),
	// read from the untraced window.
	{Name: "e2e.lat_p99_ms", Unit: "ms", Better: "lower", Layer: "e2e", Moves: "itself; spread reached 25% on read-mostly across ten seeds"},
	{Name: "e2e.read_p50_ms", Unit: "ms", Better: "lower", Layer: "e2e", Moves: "itself; on mixed-tenants it sits between the fast mode and the queued-behind-fsync mode, spread 57%"},
	{Name: "e2e.read_p99_ms", Unit: "ms", Better: "lower", Layer: "e2e", Moves: "itself; spread reached 26% on read-mostly across ten seeds"},
	{Name: "e2e.write_p99_ms", Unit: "ms", Better: "lower", Layer: "e2e", Moves: "itself; spread reached 23% on read-mostly across ten seeds"},
	{Name: "e2e.fail_ratio", Unit: "ratio", Better: "lower", Layer: "e2e", Moves: "itself; 0 on HEAD, so the contract forbids it as an end-to-end metric"},
	{Name: "e2e.fleet_cpu_us_per_op", Unit: "us/op", Better: "lower", Layer: "e2e", Moves: "itself; spread reached 30% on small-write across ten seeds"},
	{Name: "e2e.acked_lost", Unit: "count", Better: "lower", Layer: "e2e", Moves: "itself; acked durable writes missing after SIGKILL + replay, must be 0"},
}

// Shipped anufsd defaults the in-process ladder rungs mirror, so a scratch
// journaled store behaves like the daemons' (cmd/anufsd flag defaults).
const (
	shippedFsyncInterval = 2 * time.Millisecond
	shippedSnapshotEvery = 4096
	shippedOpCost        = 2 * time.Millisecond
)

var shippedSpeeds = map[int]float64{0: 1, 1: 3, 2: 5, 3: 7, 4: 9}
