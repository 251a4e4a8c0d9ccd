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
// standby's local lease on the primary (renewed by every ship it answers), so
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
	"anufs/internal/obs"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// Defaults.
const (
	// DefaultLease is how long the standby waits after answering the last
	// ship request before promoting itself.
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

	// The ship-ahead hand-off holds at most offerSlots entries of at most
	// maxOfferBytes each; an offer that fits neither is dropped and reaches
	// the standby through the tailer once durable. The slots outlast a
	// stalled standby by twice the committer's own queue, and a slot's
	// buffer is reused, so the hand-off tops out at 4 MiB however long the
	// standby stalls.
	offerSlots    = 256
	maxOfferBytes = 16 << 10
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
	// SyncTimeout bounds WaitAcked (default DefaultSyncTimeout).
	SyncTimeout time.Duration
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
	if o.SyncTimeout <= 0 {
		o.SyncTimeout = DefaultSyncTimeout
	}
	return o
}

// Shipper streams the primary's journal to one standby. Start it after the
// journal is open; arm semi-synchronous replication by installing
// WaitAcked as the journal's ack gate. Safe for concurrent use.
type Shipper struct {
	opts ShipperOptions
	rtt  *obs.Histogram
	lag  *obs.Histogram
	// heartbeat is the idle heartbeat interval and backoff the reconnect
	// delay: DefaultHeartbeat and DefaultBackoff, which tests shorten
	// before Start.
	heartbeat time.Duration
	backoff   time.Duration

	mu      sync.Mutex
	acked   uint64
	ackSig  chan struct{}
	stopped bool
	conn    *wire.Client // the session's connection, closed by Stop
	// lastErr is why the last session ended (nil before the first ends).
	lastErr error

	// The ship-ahead hand-off: a ring of the entries the journal's committer
	// offered and the shipper has not consumed, oldest at head. offMu is
	// held only to copy into a slot or to move head; the shipper sends from
	// the slots themselves, which offer cannot reach until consume frees
	// them.
	offMu  sync.Mutex
	ring   [offerSlots]offered
	head   int
	queued int
	offSig chan struct{} // 1-buffered: an offer is waiting

	// aligned is the run loop's own: this shipper has had a session, so the
	// standby holds nothing another incarnation shipped.
	aligned bool
	ship    []wire.ShipEntry // reused ship batch (run loop only)

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// offered is one slot of the hand-off; payload is the slot's own buffer.
type offered struct {
	seq, trace uint64
	payload    []byte
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
		opts:      opts.withDefaults(),
		heartbeat: DefaultHeartbeat,
		backoff:   DefaultBackoff,
		ackSig:    make(chan struct{}),
		offSig:    make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if r := s.opts.Obs; r != nil {
		// Every series carries the peer label, so a primary shipping to
		// several standbys (or a fleet scrape aggregating many primaries)
		// keeps per-peer replication lag apart — anufsctl top renders one
		// row per peer from exactly these series.
		peer := fmt.Sprintf("peer=%q", s.opts.Addr)
		s.rtt = r.Hist.Get("replica_ship_rtt_seconds", peer)
		s.lag = r.Hist.Get("replica_replication_lag_seconds", peer)
		r.AddGauges(func() []obs.Gauge {
			_, acked, lag := s.progress()
			return []obs.Gauge{
				{Name: "replica_lag_entries", Labels: peer, Value: float64(lag)},
				{Name: "replica_acked_seq", Labels: peer, Value: float64(acked)},
			}
		})
		r.AddStatus("replication", func() any {
			durable, acked, lag := s.progress()
			lastErr := ""
			if err := s.lastError(); err != nil {
				lastErr = err.Error()
			}
			return map[string]any{
				"mode":        "shipping",
				"standby":     s.opts.Addr,
				"durable_seq": durable,
				"acked_seq":   acked,
				"lag_entries": lag,
				"degraded":    r.Counter("replica_sync_degraded").Load(),
				"last_error":  lastErr,
			}
		})
	} else {
		s.rtt = obs.NewHistogram()
		s.lag = obs.NewHistogram()
	}
	return s, nil
}

// progress reads the primary's durable sequence, the standby's ack and the
// entries the standby is behind by — zero when it is level or ahead, which
// shipping at gather time lets it be.
func (s *Shipper) progress() (durable, acked uint64, lag uint64) {
	durable, acked = s.opts.Journal.DurableSeq(), s.Acked()
	if durable > acked {
		lag = durable - acked
	}
	return durable, acked, lag
}

// Start launches the replication loop and has the journal offer it every
// entry at gather time.
func (s *Shipper) Start() {
	s.opts.Journal.SetOffer(s.offer)
	go s.run()
}

// Stop halts replication — a ship in flight is cut off with its
// connection — and releases every WaitAcked waiter. It returns once the
// replication loop has.
func (s *Shipper) Stop() {
	s.stopOnce.Do(func() {
		s.opts.Journal.SetOffer(nil)
		close(s.stop)
		s.mu.Lock()
		s.stopped = true
		close(s.ackSig)
		s.ackSig = make(chan struct{})
		conn := s.conn
		s.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
	})
	<-s.done
}

// offer is the journal's ship-ahead hook: it runs on the committer's
// goroutine, so it copies the entry into a free slot and returns — or drops
// it, when the ring is full or the entry oversized; the tailer delivers a
// dropped entry once it is durable.
func (s *Shipper) offer(seq, trace uint64, payload []byte) {
	s.offMu.Lock()
	if s.queued == offerSlots || len(payload) > maxOfferBytes {
		s.offMu.Unlock()
		s.opts.Obs.Counter("replica_offers_dropped").Add(1)
		return
	}
	slot := &s.ring[(s.head+s.queued)%offerSlots]
	slot.seq, slot.trace = seq, trace
	slot.payload = append(slot.payload[:0], payload...)
	s.queued++
	s.offMu.Unlock()
	select {
	case s.offSig <- struct{}{}:
	default:
	}
}

// peekOffers returns the run of offered entries that continues the stream
// at next, within one ship's bounds, after discarding offers below next (the
// tailer got there first). The entries alias their slots: they stay valid
// until consumeOffers releases them.
func (s *Shipper) peekOffers(next uint64) []wire.ShipEntry {
	s.offMu.Lock()
	defer s.offMu.Unlock()
	for s.queued > 0 && s.ring[s.head].seq < next {
		s.head, s.queued = (s.head+1)%offerSlots, s.queued-1
	}
	s.ship = s.ship[:0]
	bytes := 0
	for i := 0; i < s.queued && len(s.ship) < maxShipEntries && bytes < maxShipBytes; i++ {
		slot := &s.ring[(s.head+i)%offerSlots]
		if slot.seq != next+uint64(i) {
			break // an offer was dropped here; the tailer fills the gap
		}
		s.ship = append(s.ship, wire.ShipEntry{Seq: slot.seq, Trace: slot.trace, Payload: slot.payload})
		bytes += len(slot.payload)
	}
	return s.ship
}

// consumeOffers frees the n oldest slots, once their entries have shipped.
func (s *Shipper) consumeOffers(n int) {
	s.offMu.Lock()
	s.head, s.queued = (s.head+n)%offerSlots, s.queued-n
	s.offMu.Unlock()
}

// lastError reports why the last replication session ended: nil before
// one has failed.
func (s *Shipper) lastError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Acked reports the highest standby-acknowledged sequence.
func (s *Shipper) Acked() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

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
			s.opts.Obs.Counter("replica_sync_degraded").Add(1)
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
	backoff := wire.NewBackoff(s.backoff, 10*s.backoff)
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		c, err := wire.DialLimit(s.opts.Addr, shipTimeout, maxShipFrame)
		if err == nil {
			err = s.session(c, backoff)
		}
		if err != nil {
			s.opts.Obs.Counter("replica_stream_errors").Add(1)
			s.mu.Lock()
			s.lastErr = err
			s.mu.Unlock()
		}
		select {
		case <-s.stop:
			return
		case <-time.After(backoff.Next()):
			s.opts.Obs.Counter("replica_reconnects").Add(1)
		}
	}
}

// session streams over one connection, which Stop may close under it.
func (s *Shipper) session(c *wire.Client, backoff *wire.Backoff) error {
	defer c.Close()
	s.mu.Lock()
	stopped := s.stopped
	s.conn = c
	s.mu.Unlock()
	if stopped {
		return nil
	}
	return s.stream(c, backoff)
}

// stream runs one connection's replication session: align or resume, then
// follow the journal until an error or Stop.
func (s *Shipper) stream(c *wire.Client, backoff *wire.Backoff) error {
	ack, err := c.ShipStatus()
	if err != nil {
		return err
	}
	backoff.Reset()
	next := ack + 1
	if !s.aligned && ack > 0 {
		// What the standby holds may be another incarnation's: sequences this
		// primary will give, or has given, to other entries. Replace it.
		if next, err = s.shipCut(c, true); err != nil {
			return err
		}
	} else {
		s.setAcked(ack)
	}
	s.aligned = true
	tailer := s.opts.Journal.NewTailer(next)
	defer func() { tailer.Close() }()
	hb := time.NewTicker(s.heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-s.stop:
			return nil
		default:
		}
		if ship := s.peekOffers(next); len(ship) > 0 {
			if err := s.shipEntries(c, ship, false); err != nil {
				return err
			}
			s.consumeOffers(len(ship))
			next += uint64(len(ship))
			continue
		}
		// Nothing offered continues the stream; whatever is durable past the
		// cursor comes from the log. Capture the commit signal BEFORE asking
		// the tailer, so a commit that lands between "caught up" and the wait
		// below still wakes us.
		sig := s.opts.Journal.CommitSignal()
		if tailer.NextSeq() != next {
			tailer.Close()
			tailer = s.opts.Journal.NewTailer(next)
		}
		ents, snapshotNeeded, err := tailer.Next(maxShipEntries, maxShipBytes)
		if err != nil {
			return err
		}
		switch {
		case snapshotNeeded:
			if next, err = s.shipCut(c, false); err != nil {
				return err
			}
		case len(ents) > 0:
			ship := s.ship[:0]
			for _, e := range ents {
				ship = append(ship, wire.ShipEntry{Seq: e.Seq, Payload: e.Payload})
			}
			s.ship = ship
			if err := s.shipEntries(c, ship, true); err != nil {
				return err
			}
			next = tailer.NextSeq()
		default:
			// Caught up: sleep until the next offer or commit, or send an
			// empty ship as a lease-renewing heartbeat if the journal stays
			// idle.
			select {
			case <-s.offSig:
			case <-sig:
			case <-hb.C:
				start := time.Now()
				ack, err := c.Ship(s.opts.DaemonID, nil)
				if err != nil {
					return err
				}
				s.rtt.Observe(time.Since(start))
				s.opts.Obs.Counter("replica_heartbeats").Add(1)
				s.setAcked(ack)
			case <-s.stop:
				return nil
			}
		}
	}
}

// shipEntries sends one batch and records its ack. Entries that carry the
// trace of the request that appended them (offered ones do; the log keeps
// none) get a "replica-ship" span, so the standby's apply/ack spans join
// the originating timeline; fromLog batches are counted in
// replica_shipped_untraced instead.
func (s *Shipper) shipEntries(c *wire.Client, ship []wire.ShipEntry, fromLog bool) error {
	start := time.Now()
	ack, err := c.Ship(s.opts.DaemonID, ship)
	if err != nil {
		return err
	}
	rtt := time.Since(start)
	s.rtt.ObserveTrace(rtt, firstTrace(ship))
	var bytes int64
	for i := range ship {
		bytes += int64(len(ship[i].Payload))
		if ship[i].Trace != 0 && s.opts.Obs != nil {
			// Server carries the originating daemon ID on replica spans.
			s.opts.Obs.Spans.Add(obs.Span{
				Trace: ship[i].Trace, Name: "replica-ship",
				Server: s.opts.DaemonID, Start: start, Dur: rtt,
			})
		}
	}
	s.opts.Obs.Counter("replica_ships").Add(1)
	s.opts.Obs.Counter("replica_shipped_entries").Add(int64(len(ship)))
	s.opts.Obs.Counter("replica_shipped_bytes").Add(bytes)
	if fromLog {
		s.opts.Obs.Counter("replica_shipped_untraced").Add(int64(len(ship)))
	}
	s.setAcked(ack)
	return nil
}

// shipCut sends the standby a full cut of the store and returns the
// sequence the stream continues at. With reset the cut replaces whatever
// the standby holds; without, it carries a standby that fell behind the
// compaction horizon past it.
func (s *Shipper) shipCut(c *wire.Client, reset bool) (next uint64, err error) {
	seq, cut := s.opts.Journal.CaptureCut(s.opts.Images)
	send, counter := c.ShipSnapshot, "replica_snapshots_shipped"
	if reset {
		send, counter = c.ShipReset, "replica_resets_shipped"
	}
	start := time.Now()
	ack, err := send(seq, journal.EncodeImages(cut))
	if err != nil {
		return 0, err
	}
	s.rtt.Observe(time.Since(start))
	s.opts.Obs.Counter(counter).Add(1)
	s.setAcked(ack)
	return seq + 1, nil
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
