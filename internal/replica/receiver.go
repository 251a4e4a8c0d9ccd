package replica

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"anufs/internal/journal"
	"anufs/internal/obs"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// ErrPromoted is returned to ship requests that arrive after the standby
// has promoted itself — the old primary must not keep replicating into a
// journal that now has a local writer.
var ErrPromoted = errors.New("replica: standby promoted")

// startupGrace is how many leases a freshly started standby waits for the
// primary's first contact: a standby that boots first must not promote
// over a primary that is still starting, and one whose primary never
// appears still promotes, after the grace.
const startupGrace = 5

// ReceiverOptions parameterizes a Receiver.
type ReceiverOptions struct {
	// Journal is the standby's own journal, opened on its local directory.
	// The receiver is its only writer until promotion.
	Journal *journal.Journal
	// Images is the recovered store state matching the journal's durable
	// sequence (e.g. Store.Images() right after journal.Open). The receiver
	// takes ownership and keeps it warm by applying shipped entries.
	Images map[string]sharedisk.Image
	// Lease is how long the primary may go silent before promotion
	// (default DefaultLease); before its first contact it has
	// startupGrace leases.
	Lease time.Duration
	// SnapshotEvery compacts the standby journal after this many applied
	// entries, bounding standby restart time (default 4096; negative
	// disables).
	SnapshotEvery int
	// Obs receives the receiver's counters, gauges and status; nil keeps
	// them in a registry of the receiver's own that nothing exports.
	Obs *obs.Registry
}

func (o ReceiverOptions) withDefaults() ReceiverOptions {
	if o.Lease <= 0 {
		o.Lease = DefaultLease
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	if o.Obs == nil {
		o.Obs = obs.New()
	}
	return o
}

// Receiver is the standby side of log shipping: it listens for ship /
// ship-status requests, persists shipped entries through the standby's own
// journal (mirroring the primary's sequence numbering), applies them to a
// warm in-memory store, and promotes itself when the primary's lease
// lapses: one lease after it answered the primary's last ship or
// ship-status, never while one is in flight. What it holds may run ahead
// of what its primary has made durable (entries are shipped at gather
// time); promotion keeps that suffix, and a primary's next incarnation
// replaces it, log and warm store alike, with a reset cut. It serves
// through a wire.Endpoint named "replica_recv" and answers, besides, only
// what every process answers (wire.Endpoint.Local); every other wire op is
// refused — a standby serves replication only, until promotion.
type Receiver struct {
	opts ReceiverOptions
	ep   *wire.Endpoint

	mu        sync.Mutex
	images    map[string]sharedisk.Image
	applied   uint64
	sinceSnap int
	closed    bool
	// lease fires lapsed when the primary has been silent too long: armed
	// by Listen with the startup grace, stopped while a ship or ship-status
	// is in flight (absorbing counts them), re-armed one Lease out when the
	// last of them is answered.
	lease      *time.Timer
	absorbing  int
	sawPrimary bool

	promoted    chan struct{}
	promoteOnce sync.Once
}

// NewReceiver creates a standby receiver over a recovered journal + image
// map. Listen starts serving.
func NewReceiver(opts ReceiverOptions) (*Receiver, error) {
	if opts.Journal == nil {
		return nil, errors.New("replica: receiver needs a journal")
	}
	if opts.Images == nil {
		opts.Images = map[string]sharedisk.Image{}
	}
	opts = opts.withDefaults()
	r := &Receiver{
		opts:     opts,
		images:   opts.Images,
		applied:  opts.Journal.DurableSeq(),
		promoted: make(chan struct{}),
	}
	// The Shipper keeps one ship in flight per connection, so serving a
	// connection's requests concurrently cannot reorder entries (and absorb
	// checks sequences regardless).
	r.ep = wire.NewEndpoint(opts.Obs, "replica_recv", "standby", maxShipFrame, r.handle)
	opts.Obs.AddGauges(func() []obs.Gauge {
		r.mu.Lock()
		applied := r.applied
		r.mu.Unlock()
		return []obs.Gauge{{Name: "replica_applied_seq", Value: float64(applied)}}
	})
	opts.Obs.AddStatus("replication", func() any {
		r.mu.Lock()
		applied, sawPrimary := r.applied, r.sawPrimary
		r.mu.Unlock()
		mode := "standby"
		if r.isPromoted() {
			mode = "promoted"
		}
		return map[string]any{
			"mode":        mode,
			"applied_seq": applied,
			"saw_primary": sawPrimary,
			"lease":       r.opts.Lease.String(),
		}
	})
	return r, nil
}

// Listen binds the replication listener and arms the lease with the
// startup grace. Returns the bound address. The lease is armed under r.mu,
// so no request is admitted (arrive) before it exists.
func (r *Receiver) Listen(addr string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	bound, err := r.ep.Listen(addr)
	if err == nil {
		r.lease = time.AfterFunc(startupGrace*r.opts.Lease, r.lapsed)
	}
	return bound, err
}

// Promoted is closed when the standby has taken over as primary.
func (r *Receiver) Promoted() <-chan struct{} { return r.promoted }

// State hands back the warm image map and the sequence it reflects. Call
// only after promotion (or Stop): the receiver no longer mutates the map,
// so the caller may adopt it directly into a store.
func (r *Receiver) State() (map[string]sharedisk.Image, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.images, r.applied
}

// Stop halts the lease, the listener and every connection, and returns
// once every handler has exited. It does not close the journal (the
// caller owns it — promotion keeps using it).
func (r *Receiver) Stop() {
	r.mu.Lock()
	r.closed = true
	if r.lease != nil {
		r.lease.Stop()
	}
	r.mu.Unlock()
	r.ep.Close()
}

// lapsed is the lease timer's function: the primary has been silent for
// a lease (or never appeared within the grace). It promotes, unless a ship
// is in flight or the receiver has stopped.
func (r *Receiver) lapsed() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.absorbing > 0 || r.closed {
		return
	}
	r.promote()
}

// arrive admits a ship or ship-status from the primary, holding the lease
// until answered: a ship that takes longer than a lease to absorb (a reset
// cut of a big store on a slow disk) must not promote the standby under
// the primary still sending it. False once promoted.
func (r *Receiver) arrive() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.isPromoted() {
		return false
	}
	r.lease.Stop()
	r.absorbing++
	r.sawPrimary = true
	return true
}

// answered re-arms the lease one Lease out when the last request in flight
// has been answered.
func (r *Receiver) answered() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.absorbing--; r.absorbing == 0 && !r.closed {
		r.lease.Reset(r.opts.Lease)
	}
}

// promote closes Promoted: from here the journal belongs to the daemon's
// local write path, and any straggler ship from the old primary is
// refused. Callers hold r.mu, so no ship is admitted past it.
func (r *Receiver) promote() {
	r.promoteOnce.Do(func() {
		r.opts.Obs.Counter("replica_promotions").Add(1)
		close(r.promoted)
	})
}

func (r *Receiver) isPromoted() bool {
	select {
	case <-r.promoted:
		return true
	default:
		return false
	}
}

func (r *Receiver) handle(req wire.Request) wire.Response {
	switch req.Op {
	case wire.OpShipStatus, wire.OpShip:
		if !r.arrive() {
			return wire.Fail(wire.Response{}, ErrPromoted)
		}
		defer r.answered()
		if req.Op == wire.OpShip {
			if err := r.absorb(req); err != nil {
				return wire.Fail(wire.Response{}, err)
			}
		}
		return wire.Response{AckSeq: r.opts.Journal.DurableSeq()}
	case wire.OpPing, wire.OpTrace, wire.OpTracePull:
		// The standby is a hop in the fleet's traces: its standby-ack spans
		// complete a replicated write's timeline.
		return r.ep.Local(req)
	default:
		return wire.Response{Err: fmt.Sprintf("replica: standby serves replication only (op %q refused until promotion)", req.Op)}
	}
}

// absorb persists one ship request and folds it into the warm image map.
// Entries stamped with an originating trace get a "standby-ack" span
// (Server = the shipping daemon's ID) covering journal append + warm
// apply — durability on the standby IS the ack the primary waits on.
func (r *Receiver) absorb(req wire.Request) error {
	start := time.Now()
	if req.Reset || len(req.Snap) > 0 {
		images, err := journal.DecodeImages(req.Snap)
		if err != nil {
			return fmt.Errorf("replica: shipped snapshot: %w", err)
		}
		// A reset replaces log and warm state alike, even with a cut below
		// what the standby holds: the suffix above it was another
		// incarnation's. A plain snapshot only ever carries it forward.
		install, counter := r.opts.Journal.InstallSnapshot, "replica_recv_snapshots"
		if req.Reset {
			install, counter = r.opts.Journal.ResetTo, "replica_recv_resets"
		}
		if err := install(req.SnapSeq, images); err != nil {
			return err
		}
		r.mu.Lock()
		if req.Reset || req.SnapSeq > r.applied {
			r.images = images
			r.applied = req.SnapSeq
			r.sinceSnap = 0
		}
		r.mu.Unlock()
		r.opts.Obs.Counter(counter).Add(1)
		return nil
	}
	if len(req.Entries) == 0 {
		r.opts.Obs.Counter("replica_recv_heartbeats").Add(1)
		return nil
	}
	ents := make([]journal.Shipped, len(req.Entries))
	for i, e := range req.Entries {
		ents[i] = journal.Shipped{Seq: e.Seq, Payload: e.Payload}
	}
	// Durable first, then warm state: a crash between the two replays the
	// journal on restart, so the image map can only lag the log, never
	// lead it.
	if err := r.opts.Journal.AppendShipped(ents); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	applied := 0
	for _, e := range ents {
		if e.Seq <= r.applied {
			continue // resume overlap, already applied
		}
		ent, err := journal.DecodeEntry(e.Payload)
		if err != nil {
			// AppendShipped pre-validated every payload; reaching here
			// means memory corruption, not a protocol problem.
			return fmt.Errorf("replica: entry %d: %w", e.Seq, err)
		}
		if err := journal.Apply(r.images, ent); err != nil {
			return fmt.Errorf("replica: entry %d: %w", e.Seq, err)
		}
		r.applied = e.Seq
		applied++
	}
	dur := time.Since(start)
	for i := range req.Entries {
		if tr := req.Entries[i].Trace; tr != 0 {
			r.opts.Obs.Spans.Add(obs.Span{
				Trace: tr, Name: "standby-ack",
				Server: req.Daemon, Start: start, Dur: dur,
			})
		}
	}
	r.opts.Obs.Counter("replica_recv_ships").Add(1)
	r.opts.Obs.Counter("replica_recv_entries").Add(int64(applied))
	r.sinceSnap += applied
	if r.opts.SnapshotEvery > 0 && r.sinceSnap >= r.opts.SnapshotEvery {
		r.sinceSnap = 0
		// Safe under r.mu: Snapshot reads the map via this closure before
		// any other goroutine can mutate it (all mutations hold r.mu).
		if err := r.opts.Journal.Snapshot(func() map[string]sharedisk.Image { return r.images }); err != nil {
			return err
		}
		r.opts.Obs.Counter("replica_standby_snapshots").Add(1)
	}
	return nil
}
