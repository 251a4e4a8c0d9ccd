// Command anufsd runs an ANU-managed metadata cluster as a network daemon:
// a live cluster (goroutine metadata servers over an in-memory shared
// disk) behind the wire TCP protocol. Drive it with cmd/anufsctl.
// Every connection speaks tagged binary frames from its first byte
// (internal/wire), multiplexing many in-flight requests per connection
// with out-of-order completion; anything else is counted as a bad frame
// and dropped.
//
// With -journal-dir the shared disk becomes durable: every file-set
// creation and flush is write-ahead-logged as the records it changed
// (group commit: an append waits one fsync — the median of the journal's
// recent ones, measured on this disk — for company, and appends that
// arrive during an fsync share the next one),
// state is snapshotted and the log compacted every -snapshot-every entries,
// and on startup the journal is replayed so the daemon resumes from the
// last durable cut — a SIGKILL loses only unflushed (un-synced) cache
// state, never flushed images.
//
// With -http the daemon also serves an observability endpoint: /metrics
// (Prometheus text format: per-op and per-server latency histograms, journal
// and wire counters, per-server gauges), /healthz, /tuner-log, /trace, and
// net/http/pprof under /debug/pprof/.
//
// With -replicate-to the journal is additionally log-shipped to a standby
// daemon (started with -standby on the same flags), which applies it to a
// warm in-memory store and promotes itself — serving the ordinary wire
// protocol on its own -listen address — when the primary goes silent for
// -peer-lease. Entries are shipped as the gather window opens, so the
// standby's fsync runs beside the primary's. -replicate-sync makes writes
// semi-synchronous: an append is acknowledged only once it is durable here
// and on the standby — the later of the two, not their sum — degrading to
// async after -sync-timeout rather than blocking writes on a dead standby.
// A restarted primary's first session replaces the standby's state with a
// full cut (DESIGN.md §11).
//
// Usage:
//
//	anufsd -listen :7460 -speeds 1,3,5,7,9 -filesets 16 -window 250ms \
//	       -journal-dir /var/lib/anufs/journal \
//	       -snapshot-every 4096 -checkpoint-interval 2s -http :6060 \
//	       -replicate-to standby:7461 -replicate-sync
//
//	anufsd -standby -listen :7461 -journal-dir /var/lib/anufs/standby \
//	       -peer-lease 2s -http :6061
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"anufs/internal/fleet"
	"anufs/internal/journal"
	"anufs/internal/live"
	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/replica"
	"anufs/internal/sharedisk"
	"anufs/internal/volume"
	"anufs/internal/wire"
)

func main() {
	var (
		listen   = flag.String("listen", ":7460", "TCP listen address")
		speeds   = flag.String("speeds", "1,3,5,7,9", "comma-separated relative server speeds")
		fileSets = flag.Int("filesets", 16, "file sets to pre-create (vol00..)")
		window   = flag.Duration("window", 250*time.Millisecond, "delegate tuning interval")
		opCost   = flag.Duration("opcost", 2*time.Millisecond, "metadata op service time at speed 1")

		journalDir = flag.String("journal-dir", "", "write-ahead-log directory; empty = volatile in-memory disk")
		snapEvery  = flag.Int("snapshot-every", 4096, "journal entries between snapshots + log compaction")
		ckptIval   = flag.Duration("checkpoint-interval", 2*time.Second, "background flush of dirty file sets when journaling; 0 disables")
		httpAddr   = flag.String("http", "", "observability HTTP address (/metrics, /healthz, /debug/pprof/); empty disables")

		replicateTo = flag.String("replicate-to", "", "standby replication address; journal entries are log-shipped there (requires -journal-dir)")
		replSync    = flag.Bool("replicate-sync", false, "semi-synchronous replication: acknowledge writes only after the standby acks")
		syncTimeout = flag.Duration("sync-timeout", replica.DefaultSyncTimeout, "how long a sync write waits for the standby before degrading to async")
		standby     = flag.Bool("standby", false, "run as a warm standby: receive log shipping on -listen, promote on primary silence (requires -journal-dir)")
		peerLease   = flag.Duration("peer-lease", replica.DefaultLease, "standby: how long the primary may go silent before promotion")

		fleetID        = flag.Int("fleet", -1, "this daemon's fleet ID; -1 runs standalone (no sharding)")
		fleetAuthority = flag.String("fleet-authority", "", `host the cluster-map authority with this roster: "id=addr@speed,..." (must include this daemon's -fleet id)`)
		fleetJoin      = flag.String("fleet-join", "", "join a fleet: the authority daemon's wire address")
		fleetSpeed     = flag.Float64("fleet-speed", 1, "relative speed this daemon advertises when joining a fleet")
		fleetLease     = flag.Duration("fleet-lease", 0, "authority: heartbeat lease for dead-daemon detection and journal-aware failover; 0 disables")
		fleetStandby   = flag.String("fleet-standby", "", "standby authority's wire address, tried when the authority stops answering")
		fleetAdvertise = flag.String("fleet-advertise", "", "wire address this daemon advertises to the fleet (default: derived from -listen)")

		nodeName = flag.String("node", "", `node identity stamped on trace spans and trace-pull answers (default "daemon-<fleet id>" or "daemon@<listen>")`)
		slowOver = flag.Duration("slow-trace", 0, "promote traces slower than this into the durable flight recorder (/debug/slow, SIGQUIT); 0 disables")
	)
	flag.Parse()

	speedMap, err := parseSpeeds(*speeds)
	if err != nil {
		log.Fatalf("anufsd: %v", err)
	}
	if (*replicateTo != "" || *standby) && *journalDir == "" {
		log.Fatalf("anufsd: replication needs -journal-dir (there is nothing to ship without a journal)")
	}
	if *replicateTo != "" && *standby {
		log.Fatalf("anufsd: -replicate-to and -standby are mutually exclusive (chained standbys are not supported)")
	}

	// One registry for the whole daemon: the journal, the cluster's owner
	// queues, and the wire server all record into it, so a single /metrics
	// scrape (or trace dump) covers the full request path.
	reg := obs.New()
	node := *nodeName
	if node == "" {
		if *fleetID >= 0 {
			node = fmt.Sprintf("daemon-%d", *fleetID)
		} else {
			node = "daemon@" + *listen
		}
	}
	reg.SetNode(node)
	reg.Slow.SetThreshold(*slowOver)

	// SIGQUIT dumps the slow-trace flight recorder to stderr — the incident
	// snapshot for a process about to be killed or already misbehaving.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			fmt.Fprintf(os.Stderr, "anufsd: slow-trace flight recorder (%s):\n", node)
			reg.Slow.WriteTo(os.Stderr)
		}
	}()

	// Observability HTTP comes up before anything else so a standby (which
	// may sit receiving for hours before promotion) is scrapeable too.
	var hsrv *http.Server
	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("anufsd: http: %v", err)
		}
		hsrv = &http.Server{Handler: reg.Handler()}
		go func() { _ = hsrv.Serve(hln) }()
		log.Printf("anufsd: observability HTTP at %s (/metrics, /healthz, /tuner-log, /trace, /debug/pprof/)",
			hln.Addr())
	}

	var (
		disk    sharedisk.Disk
		jnl     *journal.Journal
		shipper *replica.Shipper
	)
	role := "primary"
	if *journalDir != "" {
		j, st, info, err := journal.Open(*journalDir, journal.Options{Obs: reg})
		if err != nil {
			log.Fatalf("anufsd: journal: %v", err)
		}
		jnl = j
		if info.Truncated {
			log.Printf("anufsd: journal had a torn tail (%s@%d); recovered the durable prefix",
				info.TruncatedSegment, info.ValidBytes)
		}
		log.Printf("anufsd: recovered %d file sets (%d journal entries, snapshot seq %d) in %s",
			info.FileSets, info.Entries, info.SnapshotSeq, info.Duration)

		if *standby {
			// Standby mode: receive log shipping until the primary dies,
			// then fall through to ordinary serving on the warm state.
			reg.AddStatus("daemon", func() any { return map[string]string{"role": "standby"} })
			st = runStandby(jnl, st, *listen, *peerLease, *snapEvery, reg, hsrv)
			role = "promoted-primary"
		}
		disk = sharedisk.NewDurable(st, j, *snapEvery)

		if *replicateTo != "" {
			shipper, err = replica.NewShipper(replica.ShipperOptions{
				Addr:        *replicateTo,
				Journal:     jnl,
				Images:      st.Images,
				SyncTimeout: *syncTimeout,
				Obs:         reg,
				DaemonID:    *fleetID,
			})
			if err != nil {
				log.Fatalf("anufsd: replication: %v", err)
			}
			shipper.Start()
			mode := "async"
			if *replSync {
				jnl.SetAckGate(shipper.WaitAcked)
				mode = fmt.Sprintf("semi-sync (degrade after %s)", *syncTimeout)
			}
			log.Printf("anufsd: log-shipping journal to %s, %s", *replicateTo, mode)
		}
	} else {
		disk = sharedisk.NewStore(0)
	}
	reg.AddStatus("daemon", func() any { return map[string]string{"role": role} })

	// Fleet mode changes which file sets this daemon pre-creates: only the
	// ones the cluster map assigns to it. When the daemon journals, the
	// authority persists every committed map through the durable disk —
	// journaled, snapshotted, and log-shipped to a standby authority on the
	// same machinery as file-set metadata.
	var persistMap func(*placement.ClusterMap) error
	var persistVols func([]volume.Info, uint64) error
	if jnl != nil {
		if inst, ok := disk.(sharedisk.Installer); ok {
			persistMap = func(cm *placement.ClusterMap) error {
				im, err := fleet.EncodeMapImage(cm)
				if err != nil {
					return err
				}
				return inst.Install(fleet.MapFileSet, im)
			}
			// The volume registry replicates the same way: journaled as the
			// __volumes/registry pseudo file set, shipped to the standby.
			persistVols = func(vols []volume.Info, version uint64) error {
				im, err := volume.EncodeImage(vols, version)
				if err != nil {
					return err
				}
				return inst.Install(volume.VolumesFileSet, im)
			}
		}
	}
	// A recovered store (authority restart, or a standby about to promote)
	// may hold a replicated registry image: resume it so tenant quotas and
	// weights never reset to defaults across a failover.
	var resumeVols []volume.Info
	var resumeVolsVer uint64
	if im, err := disk.Load(volume.VolumesFileSet); err == nil {
		if vols, ver, derr := volume.DecodeImage(im); derr == nil {
			resumeVols, resumeVolsVer = vols, ver
		} else {
			log.Printf("anufsd: ignoring corrupt %s image: %v", volume.VolumesFileSet, derr)
		}
	}
	advertise := *fleetAdvertise
	if advertise == "" {
		advertise = defaultAdvertise(*listen)
	}
	fopts := fleetOptions{
		advertise:      advertise,
		speed:          *fleetSpeed,
		lease:          *fleetLease,
		journalDir:     *journalDir,
		standby:        *fleetStandby,
		persist:        persistMap,
		persistVolumes: persistVols,
		resumeVols:     resumeVols,
		resumeVolsVer:  resumeVolsVer,
	}
	var fl *fleetState
	if im, ok := ownAuthorityMap(disk, *fleetID); ok && *fleetAuthority != "" {
		// The authority restarted on its own journal: it resumes the map it
		// persisted, above every epoch it ever published, instead of
		// building a fresh one from the roster at the initial epoch.
		fl, err = resumeFleet(im, advertise, fopts)
		if err == nil {
			log.Printf("anufsd: resuming fleet authority as daemon %d from the journaled map, at epoch %d",
				fl.id, fl.initial.Epoch)
		}
	} else {
		fl, err = setupFleet(*fleetID, *fleetAuthority, *fleetJoin, *fileSets, fopts)
	}
	if err != nil {
		log.Fatalf("anufsd: %v", err)
	}
	if fl != nil && *standby {
		log.Fatalf("anufsd: -fleet and -standby are mutually exclusive")
	}
	if fl == nil && *standby {
		// A promoted standby whose shipped journal carried a cluster map was
		// the authority's standby: resume the authority role here, taking
		// over the dead primary's daemon ID (its file sets are warm in this
		// very store).
		if im, err := disk.Load(fleet.MapFileSet); err == nil {
			fl, err = resumeFleet(im, advertise, fopts)
			if err != nil {
				log.Fatalf("anufsd: fleet resume: %v", err)
			}
			log.Printf("anufsd: resuming fleet authority as daemon %d at map epoch %d",
				fl.id, fl.initial.Epoch)
		}
	}

	names := make([]string, 0, *fileSets)
	if fl != nil {
		names = fl.assigned()
	} else {
		for i := 0; i < *fileSets; i++ {
			names = append(names, fmt.Sprintf("vol%02d", i))
		}
	}
	existing := map[string]bool{}
	for _, fs := range disk.FileSets() {
		existing[fs] = true
	}
	for _, name := range names {
		if existing[name] {
			continue
		}
		if err := disk.CreateFileSet(name); err != nil {
			log.Fatalf("anufsd: %v", err)
		}
	}

	cfg := live.DefaultConfig()
	cfg.Window = *window
	cfg.OpCost = *opCost
	cfg.Obs = reg
	cluster, err := live.NewCluster(cfg, disk, speedMap)
	if err != nil {
		log.Fatalf("anufsd: %v", err)
	}

	srv := wire.NewServer(cluster)
	var member *fleet.Member
	if fl != nil {
		member, err = fleet.NewMember(fleet.MemberConfig{
			ID:            fl.id,
			Cluster:       cluster,
			Disk:          disk,
			Authority:     fl.auth,
			AuthorityAddr: fl.authorityAddr,
			StandbyAddr:   fl.standbyAddr,
			Addr:          fl.advertise,
			Speed:         fl.speed,
			JournalDir:    fl.journalDir,
			FenceAfter:    fl.fenceAfter,
			PollInterval:  fl.pollInterval,
			Obs:           reg,
		}, fl.initial)
		if err != nil {
			log.Fatalf("anufsd: fleet: %v", err)
		}
		srv.SetFleet(member)
	}
	// A promoted standby re-binds the address its receiver just released;
	// retry briefly instead of failing the takeover on a lingering socket.
	addr, err := listenRetry(srv, *listen)
	if err != nil {
		log.Fatalf("anufsd: %v", err)
	}
	log.Printf("anufsd: serving %d file sets on %d servers at %s (journal: %s)",
		len(disk.FileSets()), len(speedMap), addr, journalDesc(*journalDir))
	if member != nil {
		member.Start()
		role := "member"
		if fl.auth != nil {
			role = "authority"
		}
		log.Printf("anufsd: fleet daemon %d (%s) at map epoch %d with %d assigned file sets",
			fl.id, role, member.CurrentMap().Epoch, len(fl.assigned()))
	}

	// Background checkpointer: bounds the window of metadata lost to a
	// crash to one interval, without clients having to call sync.
	stopCkpt := make(chan struct{})
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		if jnl == nil || *ckptIval <= 0 {
			return
		}
		t := time.NewTicker(*ckptIval)
		defer t.Stop()
		for {
			select {
			case <-stopCkpt:
				return
			case <-t.C:
				if err := cluster.CheckpointAll(); err != nil {
					log.Printf("anufsd: checkpoint: %v", err)
				}
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("anufsd: shutting down")
	close(stopCkpt)
	<-ckptDone
	if hsrv != nil {
		_ = hsrv.Close()
	}
	if member != nil {
		member.Stop()
	}
	srv.Close()
	if jnl != nil {
		// Flush everything dirty so a clean shutdown loses nothing, then
		// stop the cluster and seal the journal.
		if err := cluster.CheckpointAll(); err != nil {
			log.Printf("anufsd: final checkpoint: %v", err)
		}
	}
	if shipper != nil {
		// Only now: stopping the shipper releases the ack gate, and the final
		// checkpoint's entries must reach the standby like any others. An
		// asynchronous primary has no gate; it waits here, as long as a
		// semi-synchronous write would, for the standby to have everything.
		_ = shipper.WaitAcked(jnl.DurableSeq())
		shipper.Stop()
	}
	cluster.Stop()
	if jnl != nil {
		if err := jnl.Close(); err != nil {
			log.Printf("anufsd: journal close: %v", err)
		}
	}
}

// runStandby serves log-shipping on the wire listen address until the
// primary's lease lapses, then returns the promoted warm store. On
// SIGINT/SIGTERM before promotion it shuts the standby down and exits.
func runStandby(jnl *journal.Journal, st *sharedisk.Store, listen string, lease time.Duration, snapEvery int, reg *obs.Registry, hsrv *http.Server) *sharedisk.Store {
	recv, err := replica.NewReceiver(replica.ReceiverOptions{
		Journal:       jnl,
		Images:        st.Images(),
		Lease:         lease,
		SnapshotEvery: snapEvery,
		Obs:           reg,
	})
	if err != nil {
		log.Fatalf("anufsd: standby: %v", err)
	}
	addr, err := recv.Listen(listen)
	if err != nil {
		log.Fatalf("anufsd: standby: %v", err)
	}
	log.Printf("anufsd: standby receiving log shipping at %s (promotes after %s of primary silence)", addr, lease)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-recv.Promoted():
	case <-sig:
		log.Println("anufsd: standby shutting down")
		recv.Stop()
		if hsrv != nil {
			_ = hsrv.Close()
		}
		if err := jnl.Close(); err != nil {
			log.Printf("anufsd: journal close: %v", err)
		}
		os.Exit(0)
	}
	recv.Stop()
	images, applied := recv.State()
	log.Printf("anufsd: primary lease lapsed; promoting with %d file sets warm at sequence %d",
		len(images), applied)
	return sharedisk.NewStoreFromImages(images, 0)
}

// listenRetry binds the wire server, retrying briefly — a promoted standby
// reuses the address its own receiver just released.
func listenRetry(srv *wire.Server, listen string) (string, error) {
	var (
		addr string
		err  error
	)
	for i := 0; i < 50; i++ {
		addr, err = srv.Listen(listen)
		if err == nil {
			return addr, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return "", err
}

func journalDesc(dir string) string {
	if dir == "" {
		return "disabled"
	}
	return dir
}

func parseSpeeds(s string) (map[int]float64, error) {
	out := map[int]float64{}
	for i, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad speed %q", part)
		}
		out[i] = v
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no speeds given")
	}
	return out, nil
}
