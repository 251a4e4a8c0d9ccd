// Package live runs a real, concurrent ANU-managed metadata cluster inside
// one process: goroutine servers with weighted-fair queues serve metadata
// operations against the shared disk, a router hashes file sets to servers
// through a published core.Mapper snapshot, and a tuner goroutine drives the
// simulator's own placement.ANU every window — collecting per-window
// latencies, letting the delegate rescale mapped regions, and driving the
// file-set move protocol (release on the shedding server, then acquire on the
// gaining one). Membership changes go through the same policy, which also
// holds the delegate-failover rule.
//
// A server's goroutine is the paper's FIFO server and never sleeps on the
// disk: the task a checkpoint queues is only the start of the flush (records
// applied to the shared-disk image, journal entry queued), and the wait for
// the commit runs on the requester's goroutine (Traced.Checkpoint). The
// latency the delegate samples for a checkpoint task is therefore queue wait
// plus service time — something re-scaling can act on; the commit wait
// stays visible as the journal-commit-wait span and the
// journal_commit_wait_seconds histogram.
//
// The simulator (internal/cluster) is what reproduces the paper's figures;
// this package is what a downstream user embeds to get the paper's
// self-managing behaviour in a running system. It is exercised with the
// race detector in its tests and by examples/webcluster.
package live

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"anufs/internal/core"
	"anufs/internal/lockmgr"
	"anufs/internal/metaserver"
	"anufs/internal/namespace"
	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/sharedisk"
)

// Config parameterizes a live cluster.
type Config struct {
	// Core is the ANU configuration shared by the mapper and delegate.
	Core core.Config
	// Window is the delegate's measurement/tuning interval.
	Window time.Duration
	// OpCost is the service time of one metadata operation on a speed-1
	// server; a server with speed s serves in OpCost/s.
	OpCost time.Duration
	// QueueDepth bounds each tenant volume's share of a server's request
	// queue (see taskQueue); Submit blocks when it is full (clients
	// experience backpressure, not drops), and one tenant's backlog cannot
	// exert backpressure on another tenant's submitters.
	QueueDepth int
	// RetryBudget bounds how long a request keeps retrying while the file
	// set it targets is mid-move.
	RetryBudget time.Duration
	// LockLease is the client-session lease duration for the lock service;
	// sessions not renewed within it are declared failed and their locks
	// reaped (paper §2).
	LockLease time.Duration
	// Obs is the shared observability registry (histograms, trace spans,
	// tuner decision log). Nil makes the cluster create a private one —
	// instrumentation is always on; share a registry across the wire server
	// and journal (as anufsd does) to get one unified surface.
	Obs *obs.Registry
}

// DefaultConfig returns demo-friendly defaults (fast windows so examples
// converge in seconds).
func DefaultConfig() Config {
	return Config{
		Core:        core.Defaults(),
		Window:      250 * time.Millisecond,
		OpCost:      2 * time.Millisecond,
		QueueDepth:  1024,
		RetryBudget: 5 * time.Second,
		LockLease:   30 * time.Second,
	}
}

// ErrStopped is returned for operations on a stopped cluster.
var ErrStopped = errors.New("live: cluster stopped")

// Cluster counter names, exported through the obs registry.
const (
	CtrMoves      = "live_moves"
	CtrTuneRounds = "live_tune_rounds"
)

// task is one queued server operation (metadata or lock).
type task struct {
	fn    func(*server) error
	enq   time.Time
	reply chan taskResult
	// trace/op/fileSet annotate the task for span emission; trace 0 means
	// untraced (histograms still record).
	trace   uint64
	op      string
	fileSet string
}

type taskResult struct {
	err     error
	latency time.Duration
}

// server is one running metadata server.
type server struct {
	id    int
	speed float64
	ms    *metaserver.Server
	locks *lockmgr.Manager
	q     *taskQueue
	done  chan struct{}
	// spans receives queue-wait/apply spans for traced tasks; histLat and
	// histWait are this server's latency and queue-wait histograms
	// (resolved once at construction to keep the hot path to plain atomic
	// adds).
	spans    *obs.SpanRing
	histLat  *obs.Histogram
	histWait *obs.Histogram

	mu     sync.Mutex
	count  int
	sumLat time.Duration
	served int64
}

func (s *server) run(opCost time.Duration) {
	defer close(s.done)
	for {
		t, ok := s.q.pop()
		if !ok {
			return
		}
		deq := time.Now()
		wait := deq.Sub(t.enq)
		if d := time.Duration(float64(opCost) / s.speed); d > 0 {
			time.Sleep(d)
		}
		err := t.fn(s)
		lat := time.Since(t.enq)
		s.mu.Lock()
		s.count++
		s.sumLat += lat
		s.served++
		s.mu.Unlock()
		s.histLat.Observe(lat)
		s.histWait.Observe(wait)
		if t.trace != 0 {
			errStr := ""
			if err != nil {
				errStr = err.Error()
			}
			s.spans.Add(obs.Span{
				Trace: t.trace, Name: "queue-wait", Op: t.op, FileSet: t.fileSet,
				Server: s.id, Start: t.enq, Dur: wait,
			})
			s.spans.Add(obs.Span{
				Trace: t.trace, Name: "apply", Op: t.op, FileSet: t.fileSet,
				Server: s.id, Start: deq, Dur: lat - wait, Err: errStr,
			})
		}
		t.reply <- taskResult{err: err, latency: lat}
	}
}

// takeWindow returns and resets the window counters.
func (s *server) takeWindow() (count int, mean float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	count = s.count
	if count > 0 {
		mean = s.sumLat.Seconds() / float64(count)
	}
	s.count, s.sumLat = 0, 0
	return count, mean
}

// Cluster is the live ANU-managed metadata cluster.
type Cluster struct {
	cfg  Config
	disk sharedisk.Disk

	// obs is the observability registry (never nil after NewCluster); the
	// cluster's own counters (moves, tune rounds) live in it.
	obs *obs.Registry

	// snapshot holds an immutable *core.Mapper for lock-free routing.
	snapshot atomic.Value

	// reconfigMu runs one reconfiguration (a tuning round, AddServer, Kill)
	// at a time, from the mapping change through its last move. Interleaved,
	// a second one can hand a file set back to a server that still has the
	// first one's release of it queued; the release then drops it, and the
	// mapping names an owner that refuses every request for it.
	reconfigMu sync.Mutex

	// started is when the cluster came up; tuning rounds are stamped with
	// the seconds since.
	started time.Time

	mu sync.Mutex
	// anu is the authoritative placement (mapper and delegate), mutated
	// under mu. It is the concrete policy rather than placement.Policy
	// because routing publishes clones of its mapper.
	anu     *placement.ANU
	servers map[int]*server
	// graveyard holds killed servers: their goroutines keep draining their
	// queues (replying ErrNotOwner after the crash) until Stop closes them.
	graveyard []*server
	// volWeights is the current per-volume WFQ weight table, applied to
	// every server queue (and to servers commissioned later).
	volWeights map[string]float64
	moves      int64
	stopped    bool
	tunerWG    sync.WaitGroup
	// submitters tracks in-flight queue sends so Stop can close the server
	// channels only once no sender can touch them.
	submitters sync.WaitGroup
	stopCh     chan struct{}
}

// NewCluster creates a cluster over the shared disk with the given server
// speeds (id → relative power). Every file set already on the disk is
// acquired by its hash-designated owner before NewCluster returns. Pass a
// sharedisk.Durable to make every flush survive a daemon crash.
func NewCluster(cfg Config, disk sharedisk.Disk, speeds map[int]float64) (*Cluster, error) {
	if cfg.Window <= 0 || cfg.QueueDepth <= 0 {
		return nil, fmt.Errorf("live: invalid config %+v", cfg)
	}
	ids := make([]int, 0, len(speeds))
	for id, sp := range speeds {
		if sp <= 0 {
			return nil, fmt.Errorf("live: server %d has non-positive speed", id)
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	anu := placement.NewANU(cfg.Core)
	if err := anu.Init(ids, nil); err != nil {
		return nil, err
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	c := &Cluster{
		cfg:     cfg,
		disk:    disk,
		obs:     cfg.Obs,
		started: time.Now(),
		anu:     anu,
		servers: map[int]*server{},
		stopCh:  make(chan struct{}),
	}
	c.obs.AddGauges(c.gauges)
	for _, id := range ids {
		c.servers[id] = c.newServer(id, speeds[id])
	}
	c.snapshot.Store(anu.Mapper().Clone())
	// Initial ownership: each file set is acquired by its mapped owner.
	for _, fs := range disk.FileSets() {
		owner := anu.Owner(fs)
		if err := c.servers[owner].ms.Acquire(fs); err != nil {
			return nil, err
		}
	}
	c.tunerWG.Add(1)
	go c.tuneLoop()
	return c, nil
}

func (c *Cluster) newServer(id int, speed float64) *server {
	label := fmt.Sprintf("server=%q", strconv.Itoa(id))
	s := &server{
		id:       id,
		speed:    speed,
		ms:       metaserver.New(id, c.disk),
		locks:    lockmgr.New(c.cfg.LockLease, nil),
		q:        newTaskQueue(c.cfg.QueueDepth),
		done:     make(chan struct{}),
		spans:    c.obs.Spans,
		histLat:  c.obs.Hist.Get("live_latency_seconds", label),
		histWait: c.obs.Hist.Get("live_queue_wait_seconds", label),
	}
	if c.volWeights != nil {
		s.q.setWeights(c.volWeights)
	}
	go s.run(c.cfg.OpCost)
	return s
}

// SetVolumeWeights installs the per-volume WFQ weight table on every
// server queue (volumes not listed get weight 1). In fleet mode the
// member calls this whenever it adopts a newer volume registry, so quota
// changes published by the authority reshape scheduling fleet-wide.
func (c *Cluster) SetVolumeWeights(w map[string]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.volWeights = w
	for _, s := range c.servers {
		s.q.setWeights(w)
	}
	for _, s := range c.graveyard {
		s.q.setWeights(w)
	}
}

// Stop shuts the cluster down: the tuner exits, in-flight submissions
// finish, and the server queues drain.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	close(c.stopCh)
	servers := make([]*server, 0, len(c.servers)+len(c.graveyard))
	for _, s := range c.servers {
		servers = append(servers, s)
	}
	servers = append(servers, c.graveyard...)
	c.mu.Unlock()
	// Close the queues first: blocked pushers (including the tuner mid-
	// reconfig) wake with ErrStopped, while already-queued tasks still
	// drain and get their replies.
	for _, s := range servers {
		s.q.close()
	}
	c.tunerWG.Wait()
	c.submitters.Wait()
	for _, s := range servers {
		<-s.done
	}
}

// CreateFileSet initializes a new file set on shared disk and assigns it to
// its hash-designated owner.
func (c *Cluster) CreateFileSet(fileSet string) error {
	if err := c.disk.CreateFileSet(fileSet); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return ErrStopped
	}
	owner := c.anu.Owner(fileSet)
	return c.servers[owner].ms.Acquire(fileSet)
}

// ReleaseFileSet flushes a file set (if dirty) and stops serving it — the
// donor half of a fleet handoff. The release runs through the owner's
// queue, so it serializes behind every operation the fleet gate already
// admitted; when it returns nil, the shared-disk image is the consistent
// cut the recipient adopts. Client locks on the file set are dropped, not
// transferred (same semantics as an intra-cluster move).
func (c *Cluster) ReleaseFileSet(fileSet string) error {
	return c.do(fileSet, func(s *server) error {
		s.locks.DropFileSet(fileSet)
		return s.ms.Release(fileSet)
	})
}

// AdoptFileSet starts serving a file set whose image already exists on this
// cluster's shared disk — the recipient half of a fleet handoff (the fleet
// layer installs the image first, then adopts). The mapper-designated owner
// acquires it, exactly as CreateFileSet assigns new file sets.
func (c *Cluster) AdoptFileSet(fileSet string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return ErrStopped
	}
	owner := c.anu.Owner(fileSet)
	return c.servers[owner].ms.Acquire(fileSet)
}

// Obs returns the cluster's observability registry (never nil): the one
// passed in Config.Obs, or the private one NewCluster created.
func (c *Cluster) Obs() *obs.Registry { return c.obs }

// gauges snapshots the per-server gauges exported on /metrics.
func (c *Cluster) gauges() []obs.Gauge {
	stats := c.Stats()
	out := make([]obs.Gauge, 0, 4*len(stats))
	for _, st := range stats {
		label := fmt.Sprintf("server=%q", strconv.Itoa(st.ID))
		out = append(out,
			obs.Gauge{Name: "server_speed", Labels: label, Value: st.Speed},
			obs.Gauge{Name: "server_share_frac", Labels: label, Value: st.ShareFrac},
			obs.Gauge{Name: "server_served_total", Labels: label, Value: float64(st.Served)},
			obs.Gauge{Name: "server_owned_filesets", Labels: label, Value: float64(len(st.Owned))},
		)
	}
	return out
}

// routeOnce submits one operation to the current owner of the file set.
func (c *Cluster) routeOnce(trace uint64, op, fileSet string, fn func(*server) error) (taskResult, error) {
	snap := c.snapshot.Load().(*core.Mapper)
	owner := snap.Owner(fileSet)
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return taskResult{}, ErrStopped
	}
	srv, ok := c.servers[owner]
	if !ok {
		c.mu.Unlock()
		return taskResult{err: metaserver.ErrNotOwner}, nil
	}
	c.submitters.Add(1)
	c.mu.Unlock()
	defer c.submitters.Done()
	t := task{fn: fn, enq: time.Now(), reply: make(chan taskResult, 1), trace: trace, op: op, fileSet: fileSet}
	if err := srv.q.push(t); err != nil {
		return taskResult{}, err
	}
	return <-t.reply, nil
}

// do routes an operation to the file set's owner, retrying while the file
// set is mid-move (the new owner has not finished acquiring it yet) — the
// client-visible cost of a move, which the paper bounds at 5–10 s.
func (c *Cluster) do(fileSet string, fn func(*server) error) error {
	return c.doT(0, "", fileSet, fn)
}

// doT is do carrying trace annotations: trace is the request trace ID (0 =
// untraced) and op names the operation for span labels.
func (c *Cluster) doT(trace uint64, op, fileSet string, fn func(*server) error) error {
	deadline := time.Now().Add(c.cfg.RetryBudget)
	backoff := time.Millisecond
	for {
		res, err := c.routeOnce(trace, op, fileSet, fn)
		if err != nil {
			return err
		}
		if !errors.Is(res.err, metaserver.ErrNotOwner) {
			return res.err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("live: file set %q unavailable past retry budget: %w", fileSet, res.err)
		}
		select {
		case <-time.After(backoff):
		case <-c.stopCh:
			return ErrStopped
		}
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
}

// Create adds a metadata record.
func (c *Cluster) Create(fileSet, path string, rec sharedisk.Record) error {
	return c.do(fileSet, func(s *server) error { return s.ms.Create(fileSet, path, rec) })
}

// Stat reads a metadata record.
func (c *Cluster) Stat(fileSet, path string) (sharedisk.Record, error) {
	var rec sharedisk.Record
	err := c.do(fileSet, func(s *server) error {
		r, e := s.ms.Stat(fileSet, path)
		rec = r
		return e
	})
	return rec, err
}

// Update overwrites a metadata record.
func (c *Cluster) Update(fileSet, path string, rec sharedisk.Record) error {
	return c.do(fileSet, func(s *server) error { return s.ms.Update(fileSet, path, rec) })
}

// Remove deletes a metadata record.
func (c *Cluster) Remove(fileSet, path string) error {
	return c.do(fileSet, func(s *server) error { return s.ms.Remove(fileSet, path) })
}

// List returns paths under a prefix.
func (c *Cluster) List(fileSet, prefix string) ([]string, error) {
	var out []string
	err := c.do(fileSet, func(s *server) error {
		l, e := s.ms.List(fileSet, prefix)
		out = l
		return e
	})
	return out, err
}

// Checkpoint flushes one file set's dirty state to shared disk without
// releasing ownership. The flush starts in the owner's queue (so it
// serializes with that server's metadata operations and release-time
// flushes); Checkpoint returns once it is durable.
func (c *Cluster) Checkpoint(fileSet string) error { return c.WithTrace(0).Checkpoint(fileSet) }

// CheckpointAll checkpoints every file set — the durability barrier behind
// the wire "sync" op: when it returns nil, everything created or updated
// before the call is on shared disk (and, with a Durable store, in the
// journal). Clean file sets are no-ops.
func (c *Cluster) CheckpointAll() error { return c.WithTrace(0).CheckpointAll() }

// Traced is a view of the cluster whose operations are attributed to one
// request trace: each queued task emits queue-wait/apply spans under the
// trace ID, and a traced Checkpoint threads the ID down to the journal so
// its group-commit wait and fsync join the same timeline. Obtain one with
// WithTrace; the zero trace ID is the untraced sentinel.
type Traced struct {
	c     *Cluster
	trace uint64
}

// WithTrace returns a view of the cluster attributing operations to trace.
func (c *Cluster) WithTrace(trace uint64) Traced { return Traced{c: c, trace: trace} }

// Create is Cluster.Create under the view's trace.
func (v Traced) Create(fileSet, path string, rec sharedisk.Record) error {
	return v.c.doT(v.trace, "create", fileSet, func(s *server) error { return s.ms.Create(fileSet, path, rec) })
}

// Stat is Cluster.Stat under the view's trace.
func (v Traced) Stat(fileSet, path string) (sharedisk.Record, error) {
	var rec sharedisk.Record
	err := v.c.doT(v.trace, "stat", fileSet, func(s *server) error {
		r, e := s.ms.Stat(fileSet, path)
		rec = r
		return e
	})
	return rec, err
}

// Update is Cluster.Update under the view's trace.
func (v Traced) Update(fileSet, path string, rec sharedisk.Record) error {
	return v.c.doT(v.trace, "update", fileSet, func(s *server) error { return s.ms.Update(fileSet, path, rec) })
}

// Remove is Cluster.Remove under the view's trace.
func (v Traced) Remove(fileSet, path string) error {
	return v.c.doT(v.trace, "remove", fileSet, func(s *server) error { return s.ms.Remove(fileSet, path) })
}

// List is Cluster.List under the view's trace.
func (v Traced) List(fileSet, prefix string) ([]string, error) {
	var out []string
	err := v.c.doT(v.trace, "list", fileSet, func(s *server) error {
		l, e := s.ms.List(fileSet, prefix)
		out = l
		return e
	})
	return out, err
}

// Checkpoint is Cluster.Checkpoint under the view's trace: the flush is
// journaled under the trace ID, so the request's span timeline includes the
// group-commit wait and fsync it rode. Only the start of the flush is a
// task of the owner; the wait for the journal runs here, on the caller's
// goroutine, and the owner serves its next task meanwhile.
func (v Traced) Checkpoint(fileSet string) error {
	commit, err := v.startCheckpoint(fileSet)
	if err != nil {
		return err
	}
	return commit.Wait()
}

// startCheckpoint runs metaserver.CheckpointTraced as a task of the file
// set's owner: on return the dirty records are on the shared disk's image
// and queued for its log, and the Commit waits for them to be durable.
func (v Traced) startCheckpoint(fileSet string) (metaserver.Commit, error) {
	var commit metaserver.Commit
	trace := v.trace
	err := v.c.doT(trace, "checkpoint", fileSet, func(s *server) error {
		var err error
		commit, err = s.ms.CheckpointTraced(trace, fileSet)
		return err
	})
	return commit, err
}

// CheckpointEach checkpoints the named file sets, starting every flush
// before waiting for any, so they meet in the journal's group commit
// instead of paying one commit each in turn. It returns the first failure,
// naming its file set, after every started flush has been waited for.
func (v Traced) CheckpointEach(fileSets []string) error {
	commits := make([]metaserver.Commit, len(fileSets))
	var firstErr error
	note := func(fileSet string, err error) {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("checkpoint of %q: %w", fileSet, err)
		}
	}
	for i, fs := range fileSets {
		var err error
		commits[i], err = v.startCheckpoint(fs)
		note(fs, err)
	}
	for i, fs := range fileSets {
		note(fs, commits[i].Wait())
	}
	return firstErr
}

// CheckpointAll is Cluster.CheckpointAll under the view's trace. System
// images the disk also holds (the fleet map, the volume registry) are
// skipped: no server owns them, so there is no cache to flush and waiting
// for an owner would only time out.
func (v Traced) CheckpointAll() error {
	var fileSets []string
	for _, fs := range v.c.disk.FileSets() {
		if !namespace.SystemVolume(namespace.VolumeOf(fs)) {
			fileSets = append(fileSets, fs)
		}
	}
	return v.CheckpointEach(fileSets)
}

// Owner reports which server currently serves the file set.
func (c *Cluster) Owner(fileSet string) int {
	return c.snapshot.Load().(*core.Mapper).Owner(fileSet)
}

// MappingConfig serializes the current routing configuration — the
// replicated state of §4/§5. A client holding it routes identically to the
// cluster (see core.RouterFromConfig) until the next reconfiguration.
func (c *Cluster) MappingConfig() ([]byte, error) {
	return c.snapshot.Load().(*core.Mapper).MarshalConfig()
}

// Servers returns the live server IDs.
func (c *Cluster) Servers() []int {
	return c.snapshot.Load().(*core.Mapper).Servers()
}

// Moves reports the total number of file-set movements performed.
func (c *Cluster) Moves() int64 { return atomic.LoadInt64(&c.moves) }

// ServerStats is an observability snapshot for one server.
type ServerStats struct {
	ID        int
	Speed     float64
	ShareFrac float64
	Served    int64
	Owned     []string
}

// Stats snapshots per-server state, sorted by ID.
func (c *Cluster) Stats() []ServerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ServerStats, 0, len(c.servers))
	for id, s := range c.servers {
		s.mu.Lock()
		served := s.served
		s.mu.Unlock()
		frac, _ := c.anu.Mapper().ShareFrac(id)
		out = append(out, ServerStats{
			ID:        id,
			Speed:     s.speed,
			ShareFrac: frac,
			Served:    served,
			Owned:     s.ms.Owned(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// tuneLoop is the delegate: every Window it collects latency reports, runs
// one ANU round, publishes the new mapping, and applies the moves.
func (c *Cluster) tuneLoop() {
	defer c.tunerWG.Done()
	ticker := time.NewTicker(c.cfg.Window)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-ticker.C:
			c.TuneOnce()
		}
	}
}

// TuneOnce runs a single delegate round immediately (also used by tests to
// make tuning deterministic).
func (c *Cluster) TuneOnce() {
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	reports := make([]core.LatencyReport, 0, len(c.servers))
	for id, s := range c.servers {
		n, mean := s.takeWindow()
		reports = append(reports, core.LatencyReport{ServerID: id, MeanLatency: mean, Requests: n})
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].ServerID < reports[j].ServerID })
	before := c.anu.Mapper().Clone()
	if err := c.anu.Reconfigure(time.Since(c.started).Seconds(), reports); err != nil {
		// A failed round leaves the previous configuration in place; the
		// next window retries with fresh reports.
		c.mu.Unlock()
		return
	}
	c.obs.Counter(CtrTuneRounds).Add(1)
	// Record the decision when the round saw traffic or acted; idle rounds
	// would only flood the ring.
	if res := c.anu.LastUpdate; res.Aggregate > 0 || res.Tuned {
		ev := obs.EventFromUpdate(res)
		ev.At = time.Now()
		ev.Policy = c.anu.Name()
		c.obs.Tuner.Add(ev)
	}
	c.finishReconfigLocked(before)
}

// finishReconfigLocked publishes the new mapping and applies the move
// protocol. Called with mu and reconfigMu held; releases mu.
func (c *Cluster) finishReconfigLocked(before *core.Mapper) {
	after := c.anu.Mapper().Clone()
	moves := core.Moves(before, after, c.disk.FileSets())
	servers := make(map[int]*server, len(c.servers))
	for id, s := range c.servers {
		servers[id] = s
	}
	c.submitters.Add(1)
	c.mu.Unlock()
	defer c.submitters.Done()

	// Publish first: new requests route to the new owners and wait out the
	// move; then release/acquire per moved file set.
	c.snapshot.Store(after)
	for _, mv := range moves {
		atomic.AddInt64(&c.moves, 1)
		c.obs.Counter(CtrMoves).Add(1)
		if from, ok := servers[mv.From]; ok {
			// Serialize the release behind the old owner's queued work by
			// routing it through the queue like any other task.
			t := task{
				fn: func(s *server) error {
					// Locks do not travel with the file set: clients
					// re-acquire against the new owner (paper §2 semantics
					// mirror the cache flush).
					s.locks.DropFileSet(mv.Name)
					return s.ms.Release(mv.Name)
				},
				enq:     time.Now(),
				reply:   make(chan taskResult, 1),
				fileSet: mv.Name,
			}
			if err := from.q.push(t); err != nil {
				return
			}
			<-t.reply
		}
		if to, ok := servers[mv.To]; ok {
			// Acquire directly: the gaining server can load the image
			// concurrently with serving its other file sets.
			_ = to.ms.Acquire(mv.Name)
		}
	}
}

// AddServer commissions a new server with the given speed. Existing servers
// shed proportionally; only the moved file sets change owners.
func (c *Cluster) AddServer(id int, speed float64) error {
	if speed <= 0 {
		return fmt.Errorf("live: non-positive speed")
	}
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return ErrStopped
	}
	if _, dup := c.servers[id]; dup {
		c.mu.Unlock()
		return fmt.Errorf("live: server %d already present", id)
	}
	before := c.anu.Mapper().Clone()
	if err := c.anu.ServerUp(id); err != nil {
		c.mu.Unlock()
		return err
	}
	c.servers[id] = c.newServer(id, speed)
	c.finishReconfigLocked(before)
	return nil
}

// Kill crashes a server: unflushed state is lost, survivors take over from
// the last flushed images, and — per the paper — only the victim's file
// sets move. If the killed server was the delegate (lowest ID), the next
// delegate starts without divergent-tuning history, exactly the stateless
// failover of §4 (placement.ANU.ServerDown applies the rule).
func (c *Cluster) Kill(id int) error {
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return ErrStopped
	}
	victim, ok := c.servers[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("live: unknown server %d", id)
	}
	if len(c.servers) == 1 {
		c.mu.Unlock()
		return fmt.Errorf("live: cannot kill the last server")
	}
	before := c.anu.Mapper().Clone()
	if err := c.anu.ServerDown(id); err != nil {
		c.mu.Unlock()
		return err
	}
	delete(c.servers, id)
	c.graveyard = append(c.graveyard, victim)
	// Crash drops ownership without flushing; anything still queued on the
	// victim replies ErrNotOwner and clients retry against the survivors.
	victim.ms.Crash()
	c.finishReconfigLocked(before)
	return nil
}
