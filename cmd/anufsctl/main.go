// Command anufsctl is the CLI client for anufsd.
//
// Usage:
//
//	anufsctl [-addr host:7460] mkfs <fileset>
//	anufsctl create <fileset> <path> [size]
//	anufsctl stat   <fileset> <path>
//	anufsctl rm     <fileset> <path>
//	anufsctl ls     <fileset> [prefix]
//	anufsctl owner  <fileset>
//	anufsctl lock   <fileset> <path> [shared|exclusive]
//	anufsctl [-json] stats
//	anufsctl ping [n]
//	anufsctl sync
//	anufsctl [-json] trace [id|last] [n]
//	anufsctl [-json] tunerlog [n]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"

	"anufs/internal/fleet"
	"anufs/internal/placement"
	"anufs/internal/sharedisk"
	"anufs/internal/volume"
	"anufs/internal/wire"
)

// dataAPI is the surface shared by a direct wire.Client and a
// fleet.Router: with -fleet, data commands route by the cluster map.
type dataAPI interface {
	CreateFileSet(fileSet string) error
	Create(fileSet, path string, rec sharedisk.Record) error
	Stat(fileSet, path string) (sharedisk.Record, error)
	Remove(fileSet, path string) error
	List(fileSet, prefix string) ([]string, error)
	Sync() error
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7460", "anufsd address")
	jsonOut := flag.Bool("json", false, "emit JSON instead of tables (stats, trace, tunerlog)")
	fleetMode := flag.Bool("fleet", false, "route data commands through the fleet cluster map (-addr is any fleet daemon; the authority for assign/rebalance); with trace <id>, pull and stitch the trace across the fleet")
	nodesFlag := flag.String("nodes", "", `trace-pull targets for "trace <id> -fleet": comma-separated name=addr (or bare addr) wire addresses; default = every daemon in the cluster map`)
	metricsFlag := flag.String("metrics", "", `observability HTTP addresses for "top": comma-separated name=host:port (or bare host:port)`)
	volFlag := flag.String("volume", "", `with "map": show only this volume's file sets`)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	if args[0] == "top" {
		// top speaks HTTP to the nodes' observability endpoints; no wire
		// connection needed.
		targets, err := parseTopTargets(*metricsFlag)
		check(err)
		iters := 0 // forever
		interval := 2 * time.Second
		if len(args) >= 2 {
			v, err := strconv.Atoi(args[1])
			check(err)
			iters = v
		}
		if len(args) >= 3 {
			d, err := time.ParseDuration(args[2])
			check(err)
			interval = d
		}
		runTop(targets, iters, interval)
		return
	}
	c, err := wire.Dial(*addr)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	// Generous deadline: rebalance fans out many handoffs, but a CLI must
	// still fail rather than hang on a wedged daemon.
	c.SetTimeout(2 * time.Minute)
	var data dataAPI = c
	if *fleetMode {
		r, err := fleet.NewRouter(fleet.RouterConfig{AuthorityAddr: *addr})
		if err != nil {
			fatal(err)
		}
		defer r.Close()
		data = r
	}

	cmd, rest := args[0], args[1:]
	switch cmd {
	case "mkfs":
		need(rest, 1)
		check(data.CreateFileSet(rest[0]))
		fmt.Println("ok")
	case "create":
		need(rest, 2)
		var size int64
		if len(rest) >= 3 {
			size, err = strconv.ParseInt(rest[2], 10, 64)
			if err != nil {
				fatal(err)
			}
		}
		check(data.Create(rest[0], rest[1], sharedisk.Record{Size: size, Owner: "anufsctl"}))
		fmt.Println("ok")
	case "stat":
		need(rest, 2)
		rec, err := data.Stat(rest[0], rest[1])
		check(err)
		fmt.Printf("size=%d mode=%o owner=%s modtime=%s\n", rec.Size, rec.Mode, rec.Owner, rec.ModTime)
	case "rm":
		need(rest, 2)
		check(data.Remove(rest[0], rest[1]))
		fmt.Println("ok")
	case "ls":
		need(rest, 1)
		prefix := "/"
		if len(rest) >= 2 {
			prefix = rest[1]
		}
		paths, err := data.List(rest[0], prefix)
		check(err)
		for _, p := range paths {
			fmt.Println(p)
		}
	case "map":
		encoded, err := c.ClusterMap()
		check(err)
		cm, err := placement.DecodeClusterMap(encoded)
		check(err)
		if *jsonOut {
			emitJSON(cm)
			return
		}
		check(renderMap(os.Stdout, cm, *volFlag))
	case "map-epoch":
		epoch, err := c.MapEpoch()
		check(err)
		fmt.Printf("epoch %d\n", epoch)
	case "assign":
		need(rest, 2)
		daemon := -1
		if rest[1] != "auto" {
			daemon, err = strconv.Atoi(rest[1])
			check(err)
		}
		epoch, err := c.Assign(rest[0], daemon)
		check(err)
		fmt.Printf("ok (epoch %d)\n", epoch)
	case "rebalance":
		epoch, err := c.Rebalance()
		check(err)
		fmt.Printf("ok (epoch %d)\n", epoch)
	case "leave":
		need(rest, 1)
		daemon, err := strconv.Atoi(rest[0])
		check(err)
		epoch, err := c.Leave(daemon)
		check(err)
		fmt.Printf("ok (epoch %d)\n", epoch)
	case "volume":
		// Volume administration is authority-only: point -addr at the
		// authority daemon (or any daemon when routing via a gateway that
		// forwards these ops).
		need(rest, 1)
		sub, vrest := rest[0], rest[1:]
		switch sub {
		case "create":
			need(vrest, 1)
			epoch, err := c.VolumeCreate(vrest[0])
			check(err)
			fmt.Printf("ok (epoch %d)\n", epoch)
		case "rm":
			need(vrest, 1)
			epoch, err := c.VolumeDelete(vrest[0])
			check(err)
			fmt.Printf("ok (epoch %d)\n", epoch)
		case "ls":
			vols, version, err := c.VolumeList()
			check(err)
			if *jsonOut {
				emitJSON(struct {
					Version uint64        `json:"version"`
					Volumes []volume.Info `json:"volumes"`
				}{version, vols})
				return
			}
			fmt.Printf("registry version %d\n", version)
			tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "VOLUME\tPOLICY\tWEIGHT\tMAX-FILESETS\tOP-RATE")
			for _, v := range vols {
				maxFS, opRate := "-", "-"
				if v.Quota.MaxFileSets > 0 {
					maxFS = strconv.Itoa(v.Quota.MaxFileSets)
				}
				if v.Quota.OpRate > 0 {
					opRate = fmt.Sprintf("%g/s", v.Quota.OpRate)
				}
				fmt.Fprintf(tw, "%s\t%s\t%g\t%s\t%s\n", v.Name, v.Policy, v.Weight, maxFS, opRate)
			}
			check(tw.Flush())
		case "set-quota":
			// volume set-quota <name> <max-filesets> <op-rate> [weight]
			need(vrest, 3)
			maxFS, err := strconv.Atoi(vrest[1])
			check(err)
			opRate, err := strconv.ParseFloat(vrest[2], 64)
			check(err)
			weight := 0.0
			if len(vrest) >= 4 {
				weight, err = strconv.ParseFloat(vrest[3], 64)
				check(err)
			}
			epoch, err := c.VolumeSetQuota(vrest[0], maxFS, opRate, weight)
			check(err)
			fmt.Printf("ok (epoch %d)\n", epoch)
		case "set-policy":
			need(vrest, 2)
			epoch, err := c.VolumeSetPolicy(vrest[0], vrest[1])
			check(err)
			fmt.Printf("ok (epoch %d)\n", epoch)
		default:
			usage()
		}
	case "owner":
		need(rest, 1)
		owner, err := c.Owner(rest[0])
		check(err)
		fmt.Printf("server %d\n", owner)
	case "lock":
		need(rest, 2)
		excl := len(rest) >= 3 && rest[2] == "exclusive"
		sid, err := c.Register()
		check(err)
		check(c.Lock(sid, rest[0], rest[1], excl))
		fmt.Printf("locked (session %d; lock lapses with the session lease)\n", sid)
	case "mount":
		need(rest, 2)
		check(c.Mount(rest[0], rest[1]))
		fmt.Println("ok")
	case "umount":
		need(rest, 1)
		check(c.Unmount(rest[0]))
		fmt.Println("ok")
	case "resolve":
		need(rest, 1)
		fs, rel, err := c.Resolve(rest[0])
		check(err)
		fmt.Printf("fileset=%s rel=%s\n", fs, rel)
	case "pcreate":
		need(rest, 1)
		check(c.PCreate(rest[0], sharedisk.Record{Owner: "anufsctl"}))
		fmt.Println("ok")
	case "pstat":
		need(rest, 1)
		rec, err := c.PStat(rest[0])
		check(err)
		fmt.Printf("size=%d mode=%o owner=%s modtime=%s\n", rec.Size, rec.Mode, rec.Owner, rec.ModTime)
	case "stats":
		stats, err := c.Stats()
		check(err)
		js, err := c.JournalStats()
		check(err)
		ws, conns, err := c.WireStats()
		check(err)
		if *jsonOut {
			emitJSON(struct {
				Servers []wire.ServerStat `json:"servers"`
				Journal map[string]int64  `json:"journal,omitempty"`
				Wire    map[string]int64  `json:"wire,omitempty"`
				Conns   []wire.ConnStat   `json:"conns,omitempty"`
			}{stats, js, ws, conns})
			return
		}
		tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "SERVER\tSPEED\tSHARE\tOWNED\tSERVED")
		for _, st := range stats {
			fmt.Fprintf(tw, "%d\t%g\t%.1f%%\t%d\t%d\n",
				st.ID, st.Speed, st.ShareFrac*100, st.Owned, st.Served)
		}
		check(tw.Flush())
		// One listing, sorted by name whichever side reported the counter.
		ctrs := map[string]int64{}
		names := make([]string, 0, len(js)+len(ws))
		for _, m := range []map[string]int64{js, ws} {
			for name, v := range m {
				ctrs[name] = v
				names = append(names, name)
			}
		}
		if len(names) > 0 {
			sort.Strings(names)
			fmt.Println()
			tw = tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "COUNTER\tVALUE")
			for _, name := range names {
				fmt.Fprintf(tw, "%s\t%d\n", name, ctrs[name])
			}
			check(tw.Flush())
		}
		if len(conns) > 0 {
			fmt.Println()
			tw = tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "CONN\tREQUESTS\tERRORS\tSLOW\tBADFRAMES")
			for _, cn := range conns {
				fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n",
					cn.Remote, cn.Requests, cn.Errors, cn.Slow, cn.BadFrames)
			}
			check(tw.Flush())
		}
	case "ping":
		n := 3
		if len(rest) >= 1 {
			n, err = strconv.Atoi(rest[0])
			check(err)
		}
		for i := 0; i < n; i++ {
			start := time.Now()
			check(c.Ping())
			fmt.Printf("pong from %s: %s\n", *addr, time.Since(start))
		}
	case "sync":
		check(data.Sync())
		fmt.Println("ok")
	case "trace":
		// "trace" dumps recent spans; "trace <id>" one trace's timeline;
		// "trace last [n]" makes a request first so there is a fresh trace.
		var trace uint64
		n := 64
		if len(rest) >= 1 {
			if rest[0] == "last" {
				// Run a traced sync so the dumped trace crosses the whole
				// stack (wire, queue, apply, journal when enabled).
				check(c.Sync())
				trace = c.LastTrace()
			} else {
				trace, err = strconv.ParseUint(rest[0], 10, 64)
				check(err)
			}
			if len(rest) >= 2 {
				v, err := strconv.Atoi(rest[1])
				check(err)
				n = v
			}
		}
		if *fleetMode && trace != 0 {
			// Stitch the trace across every node instead of dumping one
			// daemon's ring.
			fleetTrace(c, *addr, *nodesFlag, trace, *jsonOut)
			return
		}
		spans, err := c.Trace(trace, n)
		check(err)
		if *jsonOut {
			emitJSON(spans)
			return
		}
		tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "TRACE\tSPAN\tOP\tFILESET\tSERVER\tSTART\tDUR\tERR")
		for _, sp := range spans {
			srv := strconv.Itoa(sp.Server)
			if sp.Server < 0 {
				srv = "-"
			}
			fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
				sp.Trace, sp.Name, sp.Op, sp.FileSet, srv,
				sp.Start.Format("15:04:05.000000"), sp.Dur, sp.Err)
		}
		check(tw.Flush())
	case "tunerlog":
		n := 0
		if len(rest) >= 1 {
			n, err = strconv.Atoi(rest[0])
			check(err)
		}
		events, err := c.TunerLog(n)
		check(err)
		if *jsonOut {
			emitJSON(events)
			return
		}
		for _, ev := range events {
			fmt.Printf("#%d %s aggregate=%.6fs tuned=%v changed=%.1f%%\n",
				ev.Seq, ev.At.Format("15:04:05.000"), ev.Aggregate, ev.Tuned, ev.ChangedFrac*100)
			for _, d := range ev.Decisions {
				fmt.Printf("  server %d: latency=%.6fs factor=%.3f %s share %.1f%% -> %.1f%%\n",
					d.Server, d.Latency, d.Factor, d.Reason, d.OldShare*100, d.NewShare*100)
			}
		}
	default:
		usage()
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	check(enc.Encode(v))
}
func need(args []string, n int) {
	if len(args) < n {
		usage()
	}
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "anufsctl:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: anufsctl [-addr host:port] <command>
commands:
  mkfs <fileset>
  create <fileset> <path> [size]
  stat <fileset> <path>
  rm <fileset> <path>
  ls <fileset> [prefix]
  owner <fileset>
  lock <fileset> <path> [shared|exclusive]
  mount <prefix> <fileset>
  umount <prefix>
  resolve <global-path>
  pcreate <global-path>
  pstat <global-path>
  stats            (add -json for machine-readable output)
  ping [n]         round-trip n pings; reports the negotiated protocol (tagged-v1 or line)
  sync
  trace [id|last] [n]   dump request trace spans (one trace, or the n most recent)
  trace <id> -fleet     pull the trace from every node (-nodes name=addr,... adds
                        gateways/standbys) and print one stitched cross-node timeline
  top [iters [ival]]    poll -metrics host:port,... and render per-node/per-op RED rows,
                        per-volume tenant rows (rate, errors, quota denials, p99),
                        replication lag, pool health, and exemplar traces
  tunerlog [n]          dump structured tuner decision events
fleet (daemons started with -fleet; add -fleet here to route data commands by the map):
  map [-volume v]       show the cluster map (epoch, daemons, hosted volumes, assignments)
  map-epoch             show just the map epoch
  assign <fileset> <daemon|auto>   place or live-move a file set (-addr must be the authority)
  rebalance             recompute ANU placement and hand off every mis-placed file set
  leave <daemon>        drain a daemon out of the fleet (its file sets hand off first)
volumes (multi-tenant; -addr must be the authority; file sets are named <volume>/<fileset>):
  volume create <name>
  volume rm <name>                 refused while the volume still owns file sets
  volume ls                        list volumes, policies, weights, quotas (add -json)
  volume set-quota <name> <max-filesets> <op-rate> [weight]   0 = unlimited / keep weight
  volume set-policy <name> <spread|pack>`)
	os.Exit(2)
}
