// Package replica is the warm-standby path for an anufs metadata server:
// log-shipping replication of the primary's write-ahead journal to a
// standby daemon, with lease-based promotion when the primary dies.
//
// The paper's failover story (§4, §7) leans on the shared disk: "a flushed
// image is a consistent cut another server can adopt", so a replacement
// server cold-recovers from disk. That bounds durability but not
// availability — recovery replays the whole journal tail before the first
// request is served. This package closes that window: a Shipper on the
// primary tails the journal (internal/journal.Tailer) and streams sealed
// and in-progress segments to a Receiver over the ordinary wire framing
// (ship / ship-status ops on a wire.Client, served by wire.FrameServer);
// the standby appends them to its own journal under the primary's
// sequence numbering and applies them to a warm in-memory store.
// Promotion is then a pointer swap, not a replay.
//
// Resume is sequence-based: the standby's durable sequence IS its ack, so
// after any disconnect (or standby restart — ordinary recovery rebuilds
// the ack) the shipper asks ship-status and streams from ack+1. When the
// standby has fallen behind the primary's compaction horizon the shipper
// falls back to a full snapshot cut and re-tails past it.
//
// Replication is semi-synchronous when the journal's ack gate is armed
// with Shipper.WaitAcked: an append is acknowledged once it is durable
// locally AND acked by the standby, degrading to asynchronous (with a
// counter) when the standby is down or slow rather than blocking writes.
//
// Split-brain is explicitly out of scope: promotion is decided by the
// standby's local lease on the primary (renewed by every ship request), so
// a network partition can yield two writers. The deployment must fence the
// old primary (kill it, or cut its clients) — the same assumption the
// paper makes for delegate failover.
package replica

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"anufs/internal/journal"
	"anufs/internal/metrics"
	"anufs/internal/obs"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// Election member IDs on the standby's elector: the primary (renewed by
// ship traffic) and the standby itself (self-heartbeated). Lowest live ID
// wins, so the standby is delegate exactly when the primary's lease lapsed.
const (
	PrimaryID = 0
	StandbyID = 1
)

// Defaults.
const (
	// DefaultLease is how long the standby waits after the last ship
	// request before promoting itself.
	DefaultLease = 2 * time.Second
	// DefaultHeartbeat is the shipper's idle heartbeat interval; it must be
	// well under the standby's lease so an idle-but-alive primary is never
	// mistaken for a dead one.
	DefaultHeartbeat = 500 * time.Millisecond
	// DefaultSyncTimeout bounds WaitAcked before a sync write degrades to
	// asynchronous replication.
	DefaultSyncTimeout = time.Second
	// DefaultBackoff is the reconnect delay after a failed dial or a broken
	// stream.
	DefaultBackoff = 250 * time.Millisecond

	// Per-ship batch bounds: enough to amortize the round trip, small
	// enough to keep ack latency (and therefore sync write latency) flat.
	maxShipEntries = wire.MaxShipEntries
	maxShipBytes   = 1 << 20

	// maxShipFrame is the frame-payload ceiling of the replication hop —
	// the standby's listener and the shipper's connection. The largest
	// thing a ship carries is one journal frame's worth of raw bytes (a
	// snapshot cut, or a single entry that alone exceeds maxShipBytes): the
	// journal's 64 MiB frame ceiling, plus 1 MiB for the body's own fields
	// (at most maxShipEntries sequence/trace/length prefixes).
	maxShipFrame = 65 << 20

	// shipTimeout is the shipper's per-call deadline (and connect bound):
	// snapshot ships can be large, so calls get a generous deadline instead
	// of the client default.
	shipTimeout = 30 * time.Second
)

// ShipperOptions parameterizes a Shipper.
type ShipperOptions struct {
	// Addr is the standby's replication listener.
	Addr string
	// Journal is the primary's open journal.
	Journal *journal.Journal
	// Images captures the primary's full store cut (e.g. Store.Images) for
	// the snapshot fallback when the standby is behind the compaction
	// horizon. Must deep-copy.
	Images func() map[string]sharedisk.Image
	// Heartbeat is the idle heartbeat interval (default DefaultHeartbeat).
	Heartbeat time.Duration
	// SyncTimeout bounds WaitAcked (default DefaultSyncTimeout).
	SyncTimeout time.Duration
	// Backoff is the reconnect delay (default DefaultBackoff).
	Backoff time.Duration
	// Obs, when set, receives the shipper's counters, lag gauge, and the
	// replica_ship_rtt_seconds / replica_replication_lag_seconds histograms
	// (all labeled peer="<Addr>"), plus "replica-ship" spans for shipped
	// entries whose journal append carried a request trace.
	Obs *obs.Registry
	// DaemonID is this primary's fleet daemon ID, stamped onto ship
	// requests and replica spans so the standby (and the fleet stitcher)
	// know which daemon originated each entry. Use -1 outside a fleet.
	DaemonID int
}

func (o ShipperOptions) withDefaults() ShipperOptions {
	if o.Heartbeat <= 0 {
		o.Heartbeat = DefaultHeartbeat
	}
	if o.SyncTimeout <= 0 {
		o.SyncTimeout = DefaultSyncTimeout
	}
	if o.Backoff <= 0 {
		o.Backoff = DefaultBackoff
	}
	return o
}

// Shipper streams the primary's journal to one standby. Start it after the
// journal is open; arm semi-synchronous replication by installing
// WaitAcked as the journal's ack gate. Safe for concurrent use.
type Shipper struct {
	opts     ShipperOptions
	counters *metrics.CounterSet
	rtt      *obs.Histogram
	lag      *obs.Histogram

	mu      sync.Mutex
	acked   uint64
	ackSig  chan struct{}
	stopped bool

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewShipper creates a shipper; Start begins streaming.
func NewShipper(opts ShipperOptions) (*Shipper, error) {
	if opts.Addr == "" {
		return nil, errors.New("replica: shipper needs a standby address")
	}
	if opts.Journal == nil {
		return nil, errors.New("replica: shipper needs a journal")
	}
	if opts.Images == nil {
		return nil, errors.New("replica: shipper needs an image capture func")
	}
	s := &Shipper{
		opts:     opts.withDefaults(),
		counters: metrics.NewCounterSet(),
		ackSig:   make(chan struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if r := s.opts.Obs; r != nil {
		// Every series carries the peer label, so a primary shipping to
		// several standbys (or a fleet scrape aggregating many primaries)
		// keeps per-peer replication lag apart — anufsctl top renders one
		// row per peer from exactly these series.
		peer := fmt.Sprintf("peer=%q", s.opts.Addr)
		s.rtt = r.Hist.Get("replica_ship_rtt_seconds", peer)
		s.lag = r.Hist.Get("replica_replication_lag_seconds", peer)
		r.AddCounters(s.counters.Snapshot)
		r.AddGauges(func() []obs.Gauge {
			durable := s.opts.Journal.DurableSeq()
			acked := s.Acked()
			lag := int64(durable) - int64(acked)
			if lag < 0 {
				lag = 0
			}
			return []obs.Gauge{
				{Name: "replica_lag_entries", Labels: peer, Value: float64(lag)},
				{Name: "replica_acked_seq", Labels: peer, Value: float64(acked)},
			}
		})
		r.AddStatus("replication", func() any {
			durable := s.opts.Journal.DurableSeq()
			acked := s.Acked()
			return map[string]any{
				"mode":        "shipping",
				"standby":     s.opts.Addr,
				"durable_seq": durable,
				"acked_seq":   acked,
				"lag_entries": int64(durable) - int64(acked),
				"degraded":    s.counters.Get("replica_sync_degraded"),
			}
		})
	} else {
		s.rtt = obs.NewHistogram()
		s.lag = obs.NewHistogram()
	}
	return s, nil
}

// Start launches the replication loop.
func (s *Shipper) Start() {
	go s.run()
}

// Stop halts replication and releases every WaitAcked waiter.
func (s *Shipper) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.mu.Lock()
		s.stopped = true
		close(s.ackSig)
		s.ackSig = make(chan struct{})
		s.mu.Unlock()
	})
	<-s.done
}

// Acked reports the highest standby-acknowledged sequence.
func (s *Shipper) Acked() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// Counters exposes the shipper's counter set (also exported via Obs).
func (s *Shipper) Counters() *metrics.CounterSet { return s.counters }

// WaitAcked blocks until the standby has acknowledged seq, the configured
// SyncTimeout elapses, or the shipper stops. It always returns nil: on
// timeout the write degrades to asynchronous replication (counted in
// replica_sync_degraded) instead of failing — an unreachable standby must
// not take the primary's write path down with it. Install as the journal's
// ack gate (Journal.SetAckGate) for semi-synchronous replication.
func (s *Shipper) WaitAcked(seq uint64) error {
	start := time.Now()
	var timeout <-chan time.Time
	for {
		s.mu.Lock()
		acked, sig, stopped := s.acked, s.ackSig, s.stopped
		s.mu.Unlock()
		if acked >= seq || stopped {
			s.lag.Observe(time.Since(start))
			return nil
		}
		if timeout == nil {
			t := time.NewTimer(s.opts.SyncTimeout)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-sig:
		case <-timeout:
			s.counters.Add("replica_sync_degraded", 1)
			s.lag.Observe(time.Since(start))
			return nil
		case <-s.stop:
			return nil
		}
	}
}

// setAcked advances the ack high-water mark and wakes WaitAcked waiters.
func (s *Shipper) setAcked(seq uint64) {
	s.mu.Lock()
	if seq > s.acked {
		s.acked = seq
		close(s.ackSig)
		s.ackSig = make(chan struct{})
	}
	s.mu.Unlock()
}

func (s *Shipper) run() {
	defer close(s.done)
	// Reconnects back off exponentially with jitter (shared wire.Backoff
	// policy) from the configured base, so a fleet of shippers that lost the
	// same standby does not re-dial in lockstep; a session that got as far
	// as a successful resume resets the ladder.
	backoff := wire.NewBackoff(s.opts.Backoff, 10*s.opts.Backoff)
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		c, err := wire.DialLimit(s.opts.Addr, shipTimeout, maxShipFrame)
		if err == nil {
			err = s.stream(c, backoff)
			c.Close()
		}
		if err != nil {
			s.counters.Add("replica_stream_errors", 1)
		}
		select {
		case <-s.stop:
			return
		case <-time.After(backoff.Next()):
			s.counters.Add("replica_reconnects", 1)
		}
	}
}

// stream runs one connection's replication session: resume from the
// standby's ack, then follow the journal until an error or Stop.
func (s *Shipper) stream(c *wire.Client, backoff *wire.Backoff) error {
	ack, err := c.ShipStatus()
	if err != nil {
		return err
	}
	backoff.Reset()
	s.setAcked(ack)
	tailer := s.opts.Journal.NewTailer(ack + 1)
	defer tailer.Close()
	hb := time.NewTicker(s.opts.Heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-s.stop:
			return nil
		default:
		}
		// Capture the commit signal BEFORE asking the tailer, so a commit
		// that lands between "caught up" and the wait below still wakes us.
		sig := s.opts.Journal.CommitSignal()
		ents, snapshotNeeded, err := tailer.Next(maxShipEntries, maxShipBytes)
		if err != nil {
			return err
		}
		switch {
		case snapshotNeeded:
			seq, cut := s.opts.Journal.CaptureCut(s.opts.Images)
			start := time.Now()
			ack, err := c.ShipSnapshot(seq, journal.EncodeImages(cut))
			if err != nil {
				return err
			}
			s.rtt.Observe(time.Since(start))
			s.counters.Add("replica_snapshots_shipped", 1)
			s.setAcked(ack)
			tailer.Close()
			tailer = s.opts.Journal.NewTailer(seq + 1)
		case len(ents) > 0:
			ship := make([]wire.ShipEntry, len(ents))
			var bytes int64
			for i, e := range ents {
				// Stamp each entry with the request trace that appended it
				// (0 when untraced or past the journal's trace ring), so the
				// standby's apply/ack spans join the originating timeline.
				ship[i] = wire.ShipEntry{Seq: e.Seq, Payload: e.Payload, Trace: s.opts.Journal.TraceOf(e.Seq)}
				bytes += int64(len(e.Payload))
			}
			start := time.Now()
			ack, err := c.Ship(s.opts.DaemonID, ship)
			if err != nil {
				return err
			}
			rtt := time.Since(start)
			s.rtt.ObserveTrace(rtt, firstTrace(ship))
			if s.opts.Obs != nil {
				for i := range ship {
					if ship[i].Trace == 0 {
						continue
					}
					// Server carries the originating daemon ID on replica spans.
					s.opts.Obs.Spans.Add(obs.Span{
						Trace: ship[i].Trace, Name: "replica-ship",
						Server: s.opts.DaemonID, Start: start, Dur: rtt,
					})
				}
			}
			s.counters.Add("replica_ships", 1)
			s.counters.Add("replica_shipped_entries", int64(len(ents)))
			s.counters.Add("replica_shipped_bytes", bytes)
			s.setAcked(ack)
		default:
			// Caught up: sleep until the next commit, or send an empty ship
			// as a lease-renewing heartbeat if the journal stays idle.
			select {
			case <-sig:
			case <-hb.C:
				start := time.Now()
				ack, err := c.Ship(s.opts.DaemonID, nil)
				if err != nil {
					return err
				}
				s.rtt.Observe(time.Since(start))
				s.counters.Add("replica_heartbeats", 1)
				s.setAcked(ack)
			case <-s.stop:
				return nil
			}
		}
	}
}

// firstTrace returns the first non-zero entry trace of a ship batch (the
// exemplar the rtt histogram links to).
func firstTrace(ship []wire.ShipEntry) uint64 {
	for i := range ship {
		if ship[i].Trace != 0 {
			return ship[i].Trace
		}
	}
	return 0
}

// String describes the shipper for logs.
func (s *Shipper) String() string {
	return fmt.Sprintf("replica.Shipper(%s acked=%d)", s.opts.Addr, s.Acked())
}
