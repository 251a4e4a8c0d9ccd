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
	"anufs/internal/volume"
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
// setupFleet.
type fleetOptions struct {
	advertise  string
	speed      float64
	lease      time.Duration
	journalDir string
	standby    string
	persist    func(*placement.ClusterMap) error
	// persistVolumes journals the volume registry (the __volumes/registry
	// image) the way persist journals the map; resumeVols/resumeVolsVer
	// seed the registry from a recovered image, so quotas survive both an
	// authority restart and a standby promotion.
	persistVolumes func(vols []volume.Info, version uint64) error
	resumeVols     []volume.Info
	resumeVolsVer  uint64
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
		auth, err := fleet.NewAuthority(fleet.AuthorityConfig{
			Daemons:              daemons,
			FileSets:             names,
			SelfID:               id,
			Lease:                opts.lease,
			Persist:              opts.persist,
			PersistVolumes:       opts.persistVolumes,
			ResumeVolumes:        opts.resumeVols,
			ResumeVolumesVersion: opts.resumeVolsVer,
		})
		if err != nil {
			return nil, err
		}
		return &fleetState{
			id:         id,
			auth:       auth,
			speed:      opts.speed,
			journalDir: opts.journalDir,
			initial:    auth.Map(),
		}, nil
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

// ownAuthorityMap returns the cluster-map image on the recovered disk when
// it decodes and names daemon id as its authority: id hosted the authority
// on this journal before.
func ownAuthorityMap(disk sharedisk.Disk, id int) (sharedisk.Image, bool) {
	im, err := disk.Load(fleet.MapFileSet)
	if err != nil {
		return sharedisk.Image{}, false
	}
	cm, err := fleet.DecodeMapImage(im)
	return im, err == nil && id >= 0 && cm.Authority == id
}

// resumeFleet rebuilds the fleet authority from a journaled map image — one
// a promoted standby replayed out of the shipped journal, or the
// authority's own after a restart on the same journal directory: this
// process takes the map's authority daemon ID (its file sets are warm in
// the same store), advertises its own address in the map, and resumes
// issuing epochs from a floor safely above anything published before.
func resumeFleet(im sharedisk.Image, advertise string, opts fleetOptions) (*fleetState, error) {
	cm, err := fleet.DecodeMapImage(im)
	if err != nil {
		return nil, err
	}
	self := cm.Authority
	patched := *cm
	patched.Daemons = append([]placement.DaemonInfo(nil), cm.Daemons...)
	found := false
	for i := range patched.Daemons {
		if patched.Daemons[i].ID == self {
			patched.Daemons[i].Addr = advertise
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("fleet resume: map (epoch %d) does not contain its authority daemon %d", cm.Epoch, self)
	}
	auth, err := fleet.NewAuthority(fleet.AuthorityConfig{
		Resume:               &patched,
		SelfID:               self,
		Lease:                opts.lease,
		Persist:              opts.persist,
		PersistVolumes:       opts.persistVolumes,
		ResumeVolumes:        opts.resumeVols,
		ResumeVolumesVersion: opts.resumeVolsVer,
	})
	if err != nil {
		return nil, err
	}
	return &fleetState{
		id:         self,
		auth:       auth,
		speed:      opts.speed,
		journalDir: opts.journalDir,
		initial:    auth.Map(),
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
