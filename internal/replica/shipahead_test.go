package replica

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"anufs/internal/journal"
	"anufs/internal/obs"
	"anufs/internal/sharedisk"
)

// primary is one incarnation of a replicating daemon's durable half: a
// journal opened on dir, the durable disk over it, and (once started) the
// shipper, armed as the journal's ack gate.
type primary struct {
	dir  string
	jnl  *journal.Journal
	d    *sharedisk.Durable
	ship *Shipper
	obs  *obs.Registry // the shipper's
	// skipFirstSessionRule starts the shipper as if it had already had a
	// session: the mutation TestAlignmentNeedsTheFirstSessionRule runs.
	skipFirstSessionRule bool
}

func openPrimary(t testing.TB, dir string) *primary {
	t.Helper()
	jnl, store := openJournal(t, dir, journal.Options{})
	return &primary{dir: dir, jnl: jnl, d: sharedisk.NewDurable(store, jnl, 0)}
}

// replicate starts the incarnation's shipper, semi-synchronously.
func (p *primary) replicate(t testing.TB, addr string, syncTimeout time.Duration) {
	t.Helper()
	p.obs = obs.New()
	ship, err := NewShipper(ShipperOptions{
		Addr: addr, Journal: p.jnl, Images: p.d.Store.Images,
		SyncTimeout: syncTimeout, Backoff: 5 * time.Millisecond, Obs: p.obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.ship = ship
	ship.aligned = p.skipFirstSessionRule
	ship.Start()
	p.jnl.SetAckGate(ship.WaitAcked)
}

// stop ends the incarnation: the process is gone, its directory stays.
func (p *primary) stop() {
	if p.ship != nil {
		p.ship.Stop()
	}
	p.jnl.Close()
}

// put flushes a one-record delta and returns its commit.
func (p *primary) put(t testing.TB, fs, path string, size int64) sharedisk.Commit {
	t.Helper()
	v, err := p.d.Version(fs)
	if err != nil {
		t.Fatal(err)
	}
	_, c, err := p.d.FlushDelta(0, fs, sharedisk.Delta{Base: v, Puts: map[string]sharedisk.Record{path: {Size: size}}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// holdCommits keeps j from writing anything — a primary's batch, a standby's
// shipped entries — until the returned release is called: a snapshot's cut
// is taken with the journal's commit lock held, and this cut takes its time.
// It stands in for a slow fsync, which this package cannot reach; what is
// queued or shipped meanwhile is taken, offered and answered as usual.
func holdCommits(t testing.TB, j *journal.Journal, images func() map[string]sharedisk.Image) (release func()) {
	t.Helper()
	held, resume, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		done <- j.Snapshot(func() map[string]sharedisk.Image {
			close(held)
			<-resume
			return images()
		})
	}()
	<-held
	return func() {
		close(resume)
		if err := <-done; err != nil {
			t.Errorf("the snapshot that held the journal: %v", err)
		}
	}
}

// waitFor polls cond; these tests wait on events another goroutine or a
// socket delivers, never on a duration.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func notYet(t testing.TB, what string, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned early (%v)", what, err)
	default:
	}
}

// TestAckIsTheLaterOfLocalAndStandby: the standby's write runs beside the
// primary's, and a semi-synchronous append returns when both are done —
// whichever is last.
func TestAckIsTheLaterOfLocalAndStandby(t *testing.T) {
	setup := func(t *testing.T) (*primary, *journal.Journal, string, uint64) {
		sDir := t.TempDir()
		sJnl, sStore := openJournal(t, sDir, journal.Options{})
		recv, err := NewReceiver(ReceiverOptions{Journal: sJnl, Images: sStore.Images()})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := recv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p := openPrimary(t, t.TempDir())
		p.replicate(t, addr, 10*time.Second)
		t.Cleanup(func() {
			p.stop()
			recv.Stop()
			sJnl.Close()
		})
		if err := p.d.CreateFileSet("vol"); err != nil {
			t.Fatal(err)
		}
		if err := p.put(t, "vol", "/warm", 1).Wait(); err != nil {
			t.Fatal(err)
		}
		return p, sJnl, sDir, p.jnl.DurableSeq()
	}

	t.Run("local durability last", func(t *testing.T) {
		p, sJnl, _, at := setup(t)
		release := holdCommits(t, p.jnl, p.d.Store.Images)
		c := p.put(t, "vol", "/a", 2)
		done := make(chan error, 1)
		go func() { done <- c.Wait() }()
		// The entry reaches the standby's disk with the primary's own write
		// not even started.
		waitFor(t, "the standby to hold the entry", func() bool { return sJnl.DurableSeq() == at+1 })
		waitFor(t, "the ack", func() bool { return p.ship.Acked() == at+1 })
		if err := p.ship.WaitAcked(at + 1); err != nil || p.obs.Counter("replica_sync_degraded").Load() != 0 {
			t.Fatalf("WaitAcked on an acked entry: %v, degraded %d", err, p.obs.Counter("replica_sync_degraded").Load())
		}
		if got := p.jnl.DurableSeq(); got != at {
			t.Fatalf("primary DurableSeq = %d with its commit held, want %d", got, at)
		}
		if durable, acked, lag := p.ship.progress(); acked <= durable || lag != 0 {
			t.Fatalf("progress with the standby ahead = durable %d acked %d lag %d, want lag 0", durable, acked, lag)
		}
		notYet(t, "Wait, with the entry not durable locally", done)
		release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})

	t.Run("standby durability last", func(t *testing.T) {
		p, sJnl, sDir, at := setup(t)
		release := holdCommits(t, sJnl, diskImages(t, sDir))
		c := p.put(t, "vol", "/a", 2)
		done := make(chan error, 1)
		go func() { done <- c.Wait() }()
		waitFor(t, "the primary's own fsync", func() bool { return p.jnl.DurableSeq() == at+1 })
		if got := sJnl.DurableSeq(); got != at {
			t.Fatalf("standby DurableSeq = %d with its write held, want %d", got, at)
		}
		notYet(t, "Wait, with the entry not on the standby", done)
		release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if got := sJnl.DurableSeq(); got != at+1 || p.obs.Counter("replica_sync_degraded").Load() != 0 {
			t.Fatalf("standby DurableSeq = %d after the ack, degraded %d", got, p.obs.Counter("replica_sync_degraded").Load())
		}
	})
}

// TestStalledStandbyOverflowsOffersThenCatchesUp: with the standby stuck the
// hand-off fills and drops — it never blocks the committer and never grows —
// and once the standby moves the shipper reads what was dropped back from
// the log: every entry arrives, in order, once.
func TestStalledStandbyOverflowsOffersThenCatchesUp(t *testing.T) {
	sDir := t.TempDir()
	sJnl, sStore := openJournal(t, sDir, journal.Options{})
	recv, err := NewReceiver(ReceiverOptions{Journal: sJnl, Images: sStore.Images(), SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		recv.Stop()
		sJnl.Close()
	}()
	pDir := t.TempDir()
	jnl, _ := openJournal(t, pDir, journal.Options{})
	defer jnl.Close()
	reg := obs.New()
	ship, err := NewShipper(ShipperOptions{Addr: addr, Journal: jnl, Images: diskImages(t, pDir), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	ship.Start() // asynchronous: nothing waits for the standby
	defer ship.Stop()
	if err := jnl.LogCreateFileSet("fs00"); err != nil {
		t.Fatal(err)
	}
	waitAcked(t, ship, 1)

	release := holdCommits(t, sJnl, diskImages(t, sDir))
	const n = 2*offerSlots + 40
	appendFlushes(t, jnl, "fs00", 2, n) // every append returns: the committer is never held up
	ship.offMu.Lock()
	queued := ship.queued
	ship.offMu.Unlock()
	if dropped := reg.Counter("replica_offers_dropped").Load(); dropped == 0 || queued > offerSlots {
		t.Fatalf("%d offers queued of %d slots, %d dropped: the hand-off did not overflow", queued, offerSlots, dropped)
	}
	if got := ship.Acked(); got > 1+maxShipEntries {
		t.Fatalf("acked %d with the standby stalled", got)
	}
	release()
	waitAcked(t, ship, jnl.DurableSeq())
	requireStandbyEquals(t, pDir, recv)
	c := reg.Counters()
	if got := c["replica_shipped_entries"]; got != n+1 {
		t.Fatalf("shipped %d entries for %d appended: skipped or doubled", got, n+1)
	}
	if errs, snaps := c["replica_stream_errors"], c["replica_snapshots_shipped"]+c["replica_resets_shipped"]; errs != 0 || snaps != 0 {
		t.Fatalf("catch-up took %d stream errors and %d cuts; want the tailer alone", errs, snaps)
	}
}

// TestShippedUntracedCountsTheTailerOnly: an entry the shipper takes from
// the offer ring carries its request's trace and is not counted. One whose
// offer was dropped (here: too large for a slot) reaches the standby through
// the tailer, which has no trace to give it, and replica_shipped_untraced
// rises by exactly the entries re-read. Semi-sync, so every count is settled
// when the put returns.
func TestShippedUntracedCountsTheTailerOnly(t *testing.T) {
	recv, addr := startStandby(t, t.TempDir(), ReceiverOptions{})
	p := openPrimary(t, t.TempDir())
	defer p.stop()
	p.replicate(t, addr, 10*time.Second)
	if err := p.d.CreateFileSet("vol"); err != nil {
		t.Fatal(err)
	}
	put := func(path, owner string) {
		t.Helper()
		v, err := p.d.Version("vol")
		if err != nil {
			t.Fatal(err)
		}
		_, c, err := p.d.FlushDelta(7, "vol", sharedisk.Delta{Base: v, Puts: map[string]sharedisk.Record{path: {Owner: owner}}})
		if err == nil {
			err = c.Wait()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	expect := func(when string, shipped, dropped, untraced int64) {
		t.Helper()
		c := p.obs.Counters()
		if c["replica_shipped_entries"] != shipped || c["replica_offers_dropped"] != dropped || c["replica_shipped_untraced"] != untraced {
			t.Fatalf("%s: shipped %d, offers dropped %d, untraced %d; want %d, %d, %d", when,
				c["replica_shipped_entries"], c["replica_offers_dropped"], c["replica_shipped_untraced"], shipped, dropped, untraced)
		}
	}
	for i := 0; i < 3; i++ {
		put(fmt.Sprintf("/small%d", i), "w")
	}
	expect("offered entries", 4, 0, 0)
	big := strings.Repeat("x", maxOfferBytes+1)
	put("/big0", big)
	put("/big1", big)
	expect("two entries too large to offer", 6, 2, 2)
	put("/small3", "w")
	expect("an offered entry after the catch-ups", 7, 2, 2)
	requireStandbyEquals(t, p.dir, recv)
}

// TestStopCutsOffAShipInFlight: Stop does not wait for a standby that has
// stopped answering — the ship in flight ends with its connection — and the
// replication loop is gone when Stop returns.
func TestStopCutsOffAShipInFlight(t *testing.T) {
	sDir := t.TempDir()
	sJnl, sStore := openJournal(t, sDir, journal.Options{})
	recv, err := NewReceiver(ReceiverOptions{Journal: sJnl, Images: sStore.Images()})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := openPrimary(t, t.TempDir())
	p.replicate(t, addr, 10*time.Second)
	defer p.jnl.Close()
	if err := p.d.CreateFileSet("vol"); err != nil {
		t.Fatal(err)
	}
	at := p.jnl.DurableSeq()
	release := holdCommits(t, sJnl, diskImages(t, sDir))
	defer func() {
		release()
		recv.Stop()
		sJnl.Close()
	}()
	c := p.put(t, "vol", "/a", 1)
	waited := make(chan error, 1)
	go func() { waited <- c.Wait() }()
	waitFor(t, "the entry to be durable here and in flight to the standby", func() bool { return p.jnl.DurableSeq() == at+1 })
	stopped := make(chan struct{})
	go func() {
		p.ship.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop waits for a stalled standby")
	}
	select {
	case <-p.ship.done:
	default:
		t.Fatal("Stop returned with the replication loop still running")
	}
	if err := <-waited; err != nil { // Stop releases the gate
		t.Fatal(err)
	}
}

// TestSecondSessionResumesBySequence: only an incarnation's first session
// may need the cut. When the standby restarts (and with it the connection
// drops), the same shipper resumes from the standby's ack and ships entries,
// no snapshot and no reset — a standby ahead of the primary's durable
// boundary included, for what it holds this incarnation shipped.
func TestSecondSessionResumesBySequence(t *testing.T) {
	sDir := t.TempDir()
	sJnl, sStore := openJournal(t, sDir, journal.Options{})
	recv, err := NewReceiver(ReceiverOptions{Journal: sJnl, Images: sStore.Images()})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := openPrimary(t, t.TempDir())
	p.replicate(t, addr, 10*time.Second)
	defer p.stop()
	if err := p.d.CreateFileSet("vol"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := p.put(t, "vol", fmt.Sprintf("/a%d", i), int64(i)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// One more entry reaches the standby's disk but not the primary's.
	release := holdCommits(t, p.jnl, p.d.Store.Images)
	ahead := p.put(t, "vol", "/ahead", 9)
	waitFor(t, "the standby to run ahead", func() bool { return sJnl.DurableSeq() == p.jnl.DurableSeq()+1 })

	// The standby restarts on the same address.
	recv.Stop()
	if err := sJnl.Close(); err != nil {
		t.Fatal(err)
	}
	release()
	if err := ahead.Wait(); err != nil {
		t.Fatal(err)
	}
	sJnl2, sStore2 := openJournal(t, sDir, journal.Options{})
	rObs := obs.New()
	recv2, err := NewReceiver(ReceiverOptions{Journal: sJnl2, Images: sStore2.Images(), Obs: rObs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recv2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	defer func() {
		recv2.Stop()
		sJnl2.Close()
	}()
	for i := 0; i < 5; i++ {
		if err := p.put(t, "vol", fmt.Sprintf("/b%d", i), int64(i)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	waitAcked(t, p.ship, p.jnl.DurableSeq())
	requireStandbyEquals(t, p.dir, recv2)
	c := p.obs.Counters()
	if c["replica_reconnects"] == 0 {
		t.Fatal("the standby restarted and the shipper never reconnected")
	}
	if snaps, resets := c["replica_snapshots_shipped"], c["replica_resets_shipped"]; snaps != 0 || resets != 0 {
		t.Fatalf("a later session of one incarnation shipped %d snapshots and %d resets, want entries only", snaps, resets)
	}
	if got := rObs.Counter("replica_recv_resets").Load() + rObs.Counter("replica_recv_snapshots").Load(); got != 0 {
		t.Fatalf("the restarted standby took %d cuts", got)
	}
}

// step applies one random mutation of the kinds a daemon makes — create,
// delta, adopt an image, drop, and (with snapshots) now and then a snapshot
// and compaction — and waits for it to be acknowledged.
func step(rng *rand.Rand, d *sharedisk.Durable, snapshots bool) error {
	fs := fmt.Sprintf("vol%d", rng.Intn(3))
	path := func() string { return fmt.Sprintf("/p%02d", rng.Intn(12)) }
	rec := func() sharedisk.Record { return sharedisk.Record{Size: rng.Int63n(1 << 40), Owner: "o"} }
	v, verr := d.Version(fs)
	switch op := rng.Intn(20); {
	case verr != nil && op < 12:
		return d.CreateFileSet(fs)
	case verr != nil || op == 0:
		im := sharedisk.Image{Version: v + 1 + uint64(rng.Intn(3)), Records: map[string]sharedisk.Record{}}
		for n := rng.Intn(4); n > 0; n-- {
			im.Records[path()] = rec()
		}
		return d.Install(fs, im)
	case op == 1:
		return d.DropFileSet(fs)
	case op == 2 && snapshots:
		return d.Snapshot()
	default:
		dl := sharedisk.Delta{Base: v, Puts: map[string]sharedisk.Record{path(): rec()}}
		if p := path(); rng.Intn(3) == 0 {
			if _, put := dl.Puts[p]; !put {
				dl.Removes = append(dl.Removes, p)
			}
		}
		_, c, err := d.FlushDelta(0, fs, dl)
		if err != nil {
			return err
		}
		return c.Wait()
	}
}

// alignment runs one seeded history of a primary that dies with its standby
// ahead of it, and what follows: a new incarnation (promote false) or the
// standby's promotion (promote true). skipFirstSessionRule is the mutation
// the property must catch. It reports how many entries the standby held
// that the dead incarnation's directory did not, whether the next incarnation
// gave any of those sequences other contents (it may not: both may, say,
// create the same file set next), and the property's verdict.
//
// The dead incarnation is modelled exactly, without killing anything: its
// directory is copied while idle, it then makes `ahead` more mutations —
// shipped and, in the live directory, durable — and it is the copy that the
// next incarnation opens. Seen from that directory and from the standby,
// those mutations were shipped at gather time and the primary died before
// its own fsync: nobody was told they were durable.
func alignment(t *testing.T, seed int64, promote, skipFirstSessionRule bool) (ahead int, diverged bool, verdict error) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	syncTimeout, wait := 10*time.Second, 10*time.Second
	if skipFirstSessionRule {
		syncTimeout, wait = 20*time.Millisecond, 300*time.Millisecond // it is expected to wedge
	}
	standbyOpts := ReceiverOptions{SnapshotEvery: -1}
	if rng.Intn(2) == 0 && !skipFirstSessionRule {
		standbyOpts.SnapshotEvery = 2 + rng.Intn(4) // the standby cuts snapshots of its own
	}
	sDir := t.TempDir()
	var (
		sJnl *journal.Journal
		recv *Receiver
		addr string
	)
	startStandby := func() {
		var store *sharedisk.Store
		sJnl, store = openJournal(t, sDir, journal.Options{})
		opts := standbyOpts
		opts.Journal, opts.Images = sJnl, store.Images()
		var err error
		if recv, err = NewReceiver(opts); err != nil {
			t.Fatal(err)
		}
		if addr, err = recv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	stopStandby := func() {
		recv.Stop()
		sJnl.Close()
	}
	startStandby()
	defer func() { stopStandby() }()

	p1 := openPrimary(t, t.TempDir())
	p1.replicate(t, addr, 10*time.Second)
	if err := p1.d.CreateFileSet("vol0"); err != nil {
		t.Fatal(err)
	}
	// The mutation run compares the two incarnations' entries sequence by
	// sequence, so there the logs keep them: no compaction past this point,
	// and none on the standby, where a later whole image could otherwise
	// paper over a sequence the two sides disagree about.
	for n := 3 + rng.Intn(10); n > 0; n-- {
		if err := step(rng, p1.d, true); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	acked, ackedSeq := p1.d.Store.Images(), p1.jnl.DurableSeq()
	nextDir := copyDir(t, p1.dir) // idle: every mutation so far was waited for
	ahead = rng.Intn(4)
	for n := ahead; n > 0; n-- {
		if err := step(rng, p1.d, !skipFirstSessionRule); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	ahead = int(p1.jnl.DurableSeq() - ackedSeq) // a snapshot step journals nothing
	tentative := p1.d.Store.Images()
	var suffix []journal.Shipped
	if ahead > 0 && skipFirstSessionRule {
		suffix = readLog(t, p1.jnl, ackedSeq+1, ackedSeq+uint64(ahead))
	}
	p1.stop()
	if got := sJnl.DurableSeq(); got != ackedSeq+uint64(ahead) {
		t.Fatalf("seed %d: standby at %d, want %d acknowledged + %d ahead", seed, got, ackedSeq, ahead)
	}
	if rng.Intn(2) == 0 {
		stopStandby()
		startStandby()
	}

	if promote {
		// Promotion keeps the suffix: the standby serves every acknowledged
		// write and, beyond them, what it was shipped — the dead primary's
		// own state, which is a state the primary was in.
		recv.Stop()
		warm, applied := recv.State()
		onDisk, info, err := journal.Recover(sDir)
		switch {
		case err != nil:
			return ahead, false, err
		case applied < ackedSeq || info.LastSeq != applied:
			return ahead, false, fmt.Errorf("promoted at %d (log %d) below the acknowledged %d", applied, info.LastSeq, ackedSeq)
		case !reflect.DeepEqual(warm, tentative) || !reflect.DeepEqual(onDisk.Images(), tentative):
			return ahead, false, fmt.Errorf("promoted state is not the dead primary's:\n warm %+v\n disk %+v\n want %+v", warm, onDisk.Images(), tentative)
		}
		return ahead, false, nil
	}

	p2 := openPrimary(t, nextDir)
	defer p2.stop()
	if got := p2.d.Store.Images(); !reflect.DeepEqual(got, acked) || p2.jnl.DurableSeq() != ackedSeq {
		t.Fatalf("seed %d: the new incarnation recovered %d entries, not the %d acknowledged", seed, p2.jnl.DurableSeq(), ackedSeq)
	}
	for n := rng.Intn(4); n > 0; n-- { // degraded: the standby is not connected yet
		if err := step(rng, p2.d, !skipFirstSessionRule); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	p2.skipFirstSessionRule = skipFirstSessionRule
	p2.replicate(t, addr, syncTimeout)
	for n := 1 + rng.Intn(6); n > 0; n-- {
		if err := step(rng, p2.d, !skipFirstSessionRule); err != nil {
			return ahead, false, fmt.Errorf("a mutation of the new incarnation: %w", err)
		}
	}
	want, wantSeq := p2.d.Store.Images(), p2.jnl.DurableSeq()
	for _, old := range suffix {
		if old.Seq > wantSeq || !bytes.Equal(old.Payload, readLog(t, p2.jnl, old.Seq, old.Seq)[0].Payload) {
			diverged = true
		}
	}
	deadline := time.Now().Add(wait)
	for p2.ship.Acked() < wantSeq {
		if time.Now().After(deadline) {
			return ahead, diverged, fmt.Errorf("standby stuck at %d of %d (%d stream errors)", p2.ship.Acked(), wantSeq, p2.obs.Counter("replica_stream_errors").Load())
		}
		time.Sleep(time.Millisecond)
	}
	p2.ship.Stop()
	if p2.obs.Counter("replica_sync_degraded").Load() != 0 {
		return ahead, diverged, errors.New("a write was acknowledged without the standby")
	}

	// Standby and primary agree: warm state, recovered state, and the logs
	// byte for byte up to the acknowledged sequence.
	recv.Stop()
	warm, applied := recv.State()
	sStore, sInfo, err := journal.Recover(sDir)
	if err != nil {
		return ahead, diverged, err
	}
	pStore, pInfo, err := journal.Recover(nextDir)
	if err != nil {
		return ahead, diverged, err
	}
	switch {
	case applied != wantSeq || sInfo.LastSeq != wantSeq || pInfo.LastSeq != wantSeq:
		return ahead, diverged, fmt.Errorf("sequences differ: standby warm %d, log %d; primary log %d; acknowledged %d", applied, sInfo.LastSeq, pInfo.LastSeq, wantSeq)
	case !reflect.DeepEqual(pStore.Images(), want):
		return ahead, diverged, errors.New("the primary does not recover to what it acknowledged")
	case !reflect.DeepEqual(sStore.Images(), want) || !reflect.DeepEqual(warm, want):
		return ahead, diverged, fmt.Errorf("standby diverged from its primary:\n warm %+v\n disk %+v\n want %+v", warm, sStore.Images(), want)
	}
	from := max(sInfo.SnapshotSeq, pInfo.SnapshotSeq) + 1
	pLog, sLog := readLog(t, p2.jnl, from, wantSeq), readLog(t, sJnl, from, wantSeq)
	for i := range pLog {
		if pLog[i].Seq != sLog[i].Seq || !bytes.Equal(pLog[i].Payload, sLog[i].Payload) {
			return ahead, diverged, fmt.Errorf("logs differ at sequence %d", pLog[i].Seq)
		}
	}
	return ahead, diverged, nil
}

// readLog returns a journal's entries from..to.
func readLog(t *testing.T, j *journal.Journal, from, to uint64) []journal.Shipped {
	t.Helper()
	var out []journal.Shipped
	tl := j.NewTailer(from)
	defer tl.Close()
	for from+uint64(len(out)) <= to {
		ents, snap, err := tl.Next(64, 1<<20)
		if err != nil || snap || len(ents) == 0 {
			t.Fatalf("log unreadable at %d of %d..%d: %v (snapshot needed: %v)", from+uint64(len(out)), from, to, err, snap)
		}
		out = append(out, ents...)
	}
	return out
}

func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestAlignmentProperty: over seeded histories in which a primary dies with
// 0..3 entries on its standby that it never made durable — the standby
// perhaps restarted since, perhaps with a snapshot of its own over that
// suffix, the next incarnation perhaps writing before it first connects —
// standby and primary end byte-identical and hold every acknowledged write;
// and the same history ending in promotion serves the acknowledged writes
// and the suffix.
func TestAlignmentProperty(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 20
	}
	aheadSeen := 0
	for seed := int64(1); seed <= seeds; seed++ {
		ahead, _, err := alignment(t, seed, false, false)
		if err != nil {
			t.Fatalf("seed %d, restart with the standby %d ahead: %v", seed, ahead, err)
		}
		if _, _, err := alignment(t, seed, true, false); err != nil {
			t.Fatalf("seed %d, promotion with the standby %d ahead: %v", seed, ahead, err)
		}
		if ahead > 0 {
			aheadSeen++
		}
	}
	if aheadSeen < int(seeds)/2 {
		t.Fatalf("only %d of %d histories left the standby ahead", aheadSeen, seeds)
	}
}

// TestAlignmentNeedsTheFirstSessionRule is the mutation: resume a new
// incarnation's first session by sequence alone and every restart history
// in which the two incarnations disagree about a sequence fails the property
// — the standby keeps entries its primary has given other contents.
// (Histories where the primary died level with its standby, or where the new
// incarnation happens to repeat what the old one shipped, have nothing to
// misalign, and pass.)
func TestAlignmentNeedsTheFirstSessionRule(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out a wedged stream per seed")
	}
	caught := 0
	for seed := int64(1); seed <= 16; seed++ {
		ahead, diverged, err := alignment(t, seed, false, true)
		switch {
		case diverged && err == nil:
			t.Errorf("seed %d: standby %d ahead and overwritten, resumed by sequence, and the property held", seed, ahead)
		case !diverged && err != nil:
			t.Errorf("seed %d: nothing to misalign (standby %d ahead), yet: %v", seed, ahead, err)
		case diverged:
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("no history exercised the rule")
	}
}
