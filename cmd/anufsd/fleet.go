package main

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"anufs/internal/fleet"
	"anufs/internal/placement"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// fleetState is what -fleet mode resolves to before the cluster starts:
// the authority (when hosted here), the initial cluster map, the authority
// address joiners keep heartbeating, and the membership identity this
// daemon advertises.
type fleetState struct {
	id            int
	auth          *fleet.Authority
	authorityAddr string
	standbyAddr   string
	advertise     string // set only in join mode: enables the heartbeat
	speed         float64
	journalDir    string
	fenceAfter    time.Duration
	pollInterval  time.Duration
	initial       *placement.ClusterMap
}

// fleetOptions carries the dynamic-membership knobs from main into
// setupFleet. disk is the daemon's journaled disk, where a hosted
// authority keeps its state (nil when the daemon runs volatile).
type fleetOptions struct {
	advertise  string
	speed      float64
	lease      time.Duration
	journalDir string
	standby    string
	disk       sharedisk.Disk
}

// assigned lists the file sets the initial map gives this daemon.
func (f *fleetState) assigned() []string { return f.initial.FileSetsOf(f.id) }

// setupFleet resolves the fleet flags. Exactly one of roster (host the
// authority) or join (register with an authority) must be set when id >= 0.
// nFileSets seeds the authority's initial map with vol00..vol(n-1).
func setupFleet(id int, roster, join string, nFileSets int, opts fleetOptions) (*fleetState, error) {
	if id < 0 {
		if roster != "" || join != "" {
			return nil, fmt.Errorf("-fleet-authority/-fleet-join need -fleet <id>")
		}
		return nil, nil
	}
	if (roster == "") == (join == "") {
		return nil, fmt.Errorf("fleet mode needs exactly one of -fleet-authority or -fleet-join")
	}
	if roster != "" {
		daemons, err := parseRoster(roster)
		if err != nil {
			return nil, err
		}
		found := false
		for _, d := range daemons {
			if d.ID == id {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("-fleet-authority roster does not include this daemon (id %d)", id)
		}
		names := make([]string, 0, nFileSets)
		for i := 0; i < nFileSets; i++ {
			names = append(names, fmt.Sprintf("vol%02d", i))
		}
		return hostAuthority(fleet.AuthorityConfig{
			Daemons:  daemons,
			FileSets: names,
			SelfID:   id,
		}, opts)
	}
	cm, err := joinFleet(join, id, opts, 30*time.Second)
	if err != nil {
		return nil, err
	}
	// When the authority runs a liveness lease (-fleet-lease is given to
	// every daemon), heartbeat several times per lease so one dropped probe
	// does not read as death, and self-fence at HALF the lease: the fence
	// must trip strictly before the authority — which declares death after
	// one full lease of silence — can replay our journal and reassign our
	// file sets. A daemon that kept acking past the replay point would be
	// accepting writes the new owner never sees (the clocks only measure
	// local intervals from the same exchange, so half a lease of margin
	// absorbs the probe round trip). The cost of fencing early is a
	// transient availability dip on a false alarm; the cost of fencing
	// late is silent data loss.
	var fence, poll time.Duration
	if opts.lease > 0 {
		fence = opts.lease / 2
		poll = opts.lease / 8
		if poll < 50*time.Millisecond {
			poll = 50 * time.Millisecond
		}
	}
	return &fleetState{
		id:            id,
		authorityAddr: join,
		standbyAddr:   opts.standby,
		advertise:     opts.advertise,
		speed:         opts.speed,
		journalDir:    opts.journalDir,
		fenceAfter:    fence,
		pollInterval:  poll,
		initial:       cm,
	}, nil
}

// hostAuthority builds the authority this daemon hosts on its journaled
// disk — resuming the state journaled there, if any — and the fleet state
// around it. The daemon takes the ID the authority runs as: a promoted
// standby becomes the daemon whose journal it replayed.
func hostAuthority(cfg fleet.AuthorityConfig, opts fleetOptions) (*fleetState, error) {
	cfg.Lease = opts.lease
	cfg.Disk = opts.disk
	cfg.Addr = opts.advertise
	auth, err := fleet.NewAuthority(cfg)
	if err != nil {
		return nil, err
	}
	cm := auth.Map()
	return &fleetState{
		id:         cm.Authority,
		auth:       auth,
		speed:      opts.speed,
		journalDir: opts.journalDir,
		initial:    cm,
	}, nil
}

// parseRoster parses "id=addr@speed,id=addr@speed,..." — the fleet
// membership the authority daemon is started with (daemons may also join
// later over the wire).
func parseRoster(s string) ([]placement.DaemonInfo, error) {
	var out []placement.DaemonInfo
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		at := strings.LastIndexByte(part, '@')
		if eq < 0 || at < eq {
			return nil, fmt.Errorf("bad roster entry %q (want id=addr@speed)", part)
		}
		id, err := strconv.Atoi(strings.TrimSpace(part[:eq]))
		if err != nil {
			return nil, fmt.Errorf("bad roster id in %q", part)
		}
		speed, err := strconv.ParseFloat(strings.TrimSpace(part[at+1:]), 64)
		if err != nil || speed <= 0 {
			return nil, fmt.Errorf("bad roster speed in %q", part)
		}
		addr := strings.TrimSpace(part[eq+1 : at])
		if addr == "" {
			return nil, fmt.Errorf("bad roster addr in %q", part)
		}
		out = append(out, placement.DaemonInfo{ID: id, Addr: addr, Speed: speed})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty fleet roster")
	}
	return out, nil
}

// joinFleet registers this daemon with the authority (idempotent — a
// roster-listed daemon re-joining with the same identity changes nothing)
// and returns the cluster map the join reply carries. It retries until the
// authority answers: joining daemons usually start while the authority is
// still coming up.
func joinFleet(addr string, id int, opts fleetOptions, patience time.Duration) (*placement.ClusterMap, error) {
	deadline := time.Now().Add(patience)
	backoff := wire.NewBackoff(50*time.Millisecond, time.Second)
	var lastErr error
	for {
		cm, err := joinOnce(addr, id, opts)
		if err == nil {
			return cm, nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("fleet join: no map from %s after %s: %w", addr, patience, lastErr)
		}
		time.Sleep(backoff.Next())
	}
}

func joinOnce(addr string, id int, opts fleetOptions) (*placement.ClusterMap, error) {
	c, err := wire.DialTimeout(addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	_, encoded, err := c.Join(id, opts.advertise, opts.speed, opts.journalDir)
	if err != nil {
		return nil, err
	}
	return placement.DecodeClusterMap(encoded)
}

// defaultAdvertise derives a dialable address from the -listen flag when
// -fleet-advertise is not given: a wildcard host becomes loopback, which
// is right for single-host fleets (multi-host deployments must advertise
// explicitly).
func defaultAdvertise(listen string) string {
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return listen
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}
