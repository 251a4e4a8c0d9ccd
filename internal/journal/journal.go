// Package journal is the durability layer under the shared disk: a
// segmented, CRC32-checksummed write-ahead log of file-set flush deltas
// (whole images only where an image is what happened: an adopted file set,
// a snapshot), with group commit to amortize fsync cost under
// concurrent flushes, periodic snapshot + segment compaction to bound
// replay time, and a Recover path that rebuilds a sharedisk.Store from
// snapshot + log tail, truncating at the first torn or corrupt record.
//
// The paper's shared-disk substrate assumes "a flushed image is a
// consistent cut another server can adopt" (§7); this package is what makes
// that cut survive a server process crash rather than living only in
// memory. sharedisk.Durable journals every CreateFileSet/FlushDelta through
// the WAL interface; on restart, Open replays the log and hands back an
// equivalent store.
//
// Layout of a journal directory:
//
//	wal-<firstseq:016x>.log   log segments; header then framed entries
//	snap-<seq:016x>.snap      full-store snapshots; at most one survives
//	reset-<seq:016x>.snap     a standby reset in progress (ResetTo): the cut
//	                          that replaces everything else in the directory
//
// Entries are numbered by a monotonically increasing sequence; a segment's
// file name records the sequence of its first entry. A snapshot at sequence
// S covers entries 1..S; compaction deletes every segment wholly at or
// below S (Snapshot rotates first so that is every non-active segment).
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"anufs/internal/obs"
	"anufs/internal/sharedisk"
)

// Segment and snapshot file headers.
const (
	segMagic  uint32 = 0x414E554A // "ANUJ"
	snapMagic uint32 = 0x414E5553 // "ANUS"
	format    byte   = 1
	// headerLen = magic(4) + format(1) + seq(8) + CRC32 of the former (4).
	headerLen = 17
)

// putHeader fills a file header: magic, format, seq, header CRC.
func putHeader(hdr *[headerLen]byte, magic uint32, seq uint64) {
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	hdr[4] = format
	binary.LittleEndian.PutUint64(hdr[5:13], seq)
	binary.LittleEndian.PutUint32(hdr[13:17], crc32.ChecksumIEEE(hdr[0:13]))
}

// parseHeader verifies a file header and extracts the sequence.
func parseHeader(data []byte, magic uint32) (seq uint64, ok bool) {
	if len(data) < headerLen ||
		binary.LittleEndian.Uint32(data[0:4]) != magic || data[4] != format ||
		binary.LittleEndian.Uint32(data[13:17]) != crc32.ChecksumIEEE(data[0:13]) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(data[5:13]), true
}

// now is the journal's one reading of the wall clock. It times things —
// commit waits, fsyncs, recovery — for histograms, spans and RecoverInfo;
// no value it returns reaches a journal byte.
func now() time.Time {
	return time.Now()
}

// ErrClosed is returned for appends to a closed journal.
var ErrClosed = errors.New("journal: closed")

// ErrFailed marks every append a fail-stopped journal refuses; the write or
// fsync error that stopped it is wrapped beside it.
var ErrFailed = errors.New("journal: failed, appends stopped")

// Counter names, recorded in Options.Obs (and exported from there by
// /metrics and the wire stats RPC).
const (
	CtrRecords          = "journal_records_appended"
	CtrBytes            = "journal_bytes_appended"
	CtrFsyncs           = "journal_fsyncs"
	CtrBatches          = "journal_batches"
	CtrMaxBatch         = "journal_max_batch_records"
	CtrSegments         = "journal_segments_created"
	CtrSnapshots        = "journal_snapshots"
	CtrCompacted        = "journal_segments_compacted"
	CtrRecoveryNanos    = "journal_recovery_ns"
	CtrRecoveredEntries = "journal_recovered_entries"
	// CtrWriteFailed is 1 once a write or fsync has failed and the journal
	// has stopped taking appends (see failLocked), else 0.
	CtrWriteFailed = "journal_write_failed"
	// CtrGatherWindow is the gather window the last batch waited, in µs.
	CtrGatherWindow = "journal_gather_window_us"
)

// Options parameterizes a journal.
type Options struct {
	// SegmentBytes is the rotation threshold; default 4 MiB.
	SegmentBytes int64
	// FsyncInterval fixes the group-commit gather window: after the first
	// queued append the committer waits this long for company before the
	// fsync. Zero (the default) means measured: the window is the median of
	// the journal's recent fsyncs (see batch.go). Only cmd/bench's ladder and
	// the window's own tests set it; it goes when the benchmark stops
	// naming it.
	FsyncInterval time.Duration
	// Obs, when set, receives commit-path latency histograms
	// (journal_fsync_seconds, journal_commit_wait_seconds), request trace
	// spans for traced appends (LogDelta), and the journal counters.
	Obs *obs.Registry

	// noGroupCommit is a test seam: one fsync per record, the reference arm
	// of BenchmarkGroupCommit.
	noGroupCommit bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Journal is an open write-ahead log. Safe for concurrent use; it
// implements sharedisk.WAL.
type Journal struct {
	dir  string
	opts Options

	// obs instrumentation; the registry and histograms are nil when
	// Options.Obs is unset. The per-commit counters are held as handles.
	obs            *obs.Registry
	histFsync      *obs.Histogram
	histCommitWait *obs.Histogram
	ctrRecords     *obs.Counter
	ctrBytes       *obs.Counter
	ctrFsyncs      *obs.Counter
	ctrBatches     *obs.Counter
	ctrMaxBatch    *obs.Counter
	ctrWindow      *obs.Counter

	appendCh chan *appendReq
	quit     chan struct{} // closed by Close; stops accepting appends
	done     chan struct{} // closed when the committer goroutine exits

	// snapMu serializes Snapshot calls end to end (rotation + snapshot file
	// write + compaction).
	snapMu sync.Mutex

	// mu guards the active segment; the committer holds it per batch — its
	// fsync included — and Snapshot holds it while capturing a cut +
	// rotating. Nothing a shipper racing that fsync needs is behind it: the
	// durable boundary is an atomic, the commit signal has sigMu, the ack
	// gate and the offer hook are atomic pointers.
	mu       sync.Mutex
	f        *os.File
	segFirst uint64 // sequence of the active segment's first entry
	segSize  int64
	writeBuf []byte       // reused batch write buffer (committer-only, under mu)
	batch    []*appendReq // reused batch slice (committer-only, see gather)
	fsyncs   fsyncRing    // the committer's recent fsyncs, which size its window
	// stopped is the committer's own note that a batch failed: what it takes
	// off the queue from then on is not offered to the shipper.
	stopped bool
	// syncFile is the fsync a commit — or, on a standby, AppendShipped —
	// waits on; tests replace it (under mu) to hold or fail it.
	syncFile func(*os.File) error
	// durable is the sequence of the last fsynced entry; the next one
	// appended gets durable+1. Written under mu, read from anywhere.
	durable atomic.Uint64
	// failed is the first write or fsync failure, wrapped in ErrFailed. It is
	// sticky: every batch after it gets it instead of being written, so the
	// log never holds an entry above a hole.
	failed   error
	closeErr error
	closed   bool

	// commitSig, made when CommitSignal is asked for it, is closed (and
	// dropped) when the durable boundary next advances: tailers wait on it
	// for new entries without polling, and a commit nobody waits for
	// allocates no channel.
	sigMu     sync.Mutex
	commitSig chan struct{}
	// ackGate, when set, is called after an append is locally durable and
	// must not return until the entry is replicated (or the replication
	// policy gives up) — the semi-synchronous shipping hook (SetAckGate).
	ackGate atomic.Pointer[func(seq uint64) error]
	// offer, when set, is handed every entry the moment the committer takes
	// it off the queue — sequence assigned, nothing written yet — so a
	// shipper can send it while the gather window and the local fsync run
	// (SetOffer).
	offer atomic.Pointer[func(seq, trace uint64, payload []byte)]
	// sleepReq asks the sleep helper for one gather window of the length it
	// carries and woke is its answer; neither exists under noGroupCommit.
	sleepReq chan time.Duration
	woke     chan struct{}
}

type appendReq struct {
	j     *Journal
	frame []byte
	keys  []string // sort scratch for the frame's encoder
	done  chan error
	// trace is the client request trace ID that triggered this append (0 =
	// untraced); enq timestamps the hand-off to the committer so the
	// group-commit wait is measurable.
	trace uint64
	enq   time.Time
	// seq is the sequence the committer gave this record when it took it off
	// the queue; it names the entry once done has been signalled without
	// error, and Wait passes it to the ack gate so semi-sync replication
	// waits for exactly this entry.
	seq uint64
}

// Open recovers the journal in dir (creating it if needed) and opens it for
// appending: the recovered state is returned as a fresh sharedisk.Store,
// any torn tail is physically truncated, and a new active segment is
// started after the last durable entry.
func Open(dir string, opts Options) (*Journal, *sharedisk.Store, RecoverInfo, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, RecoverInfo{}, err
	}
	images, info, err := replayDir(dir)
	if err != nil {
		return nil, nil, info, err
	}
	// Make the on-disk log agree with what replay could use: drop segments
	// stranded behind the tear, then cut the torn tail. Ordering matters —
	// see tornTailCleanupOps for why a crash anywhere in between must leave
	// a directory the next recovery derives the same prefix from.
	for _, op := range tornTailCleanupOps(info) {
		if err := op.apply(); err != nil {
			return nil, nil, info, err
		}
	}
	if info.pendingReset != "" {
		if err := finishReset(dir, info.pendingReset, info.SnapshotSeq); err != nil {
			return nil, nil, info, err
		}
	}
	j := &Journal{
		dir:         dir,
		opts:        opts,
		obs:         opts.Obs,
		ctrRecords:  opts.Obs.Counter(CtrRecords),
		ctrBytes:    opts.Obs.Counter(CtrBytes),
		ctrFsyncs:   opts.Obs.Counter(CtrFsyncs),
		ctrBatches:  opts.Obs.Counter(CtrBatches),
		ctrMaxBatch: opts.Obs.Counter(CtrMaxBatch),
		ctrWindow:   opts.Obs.Counter(CtrGatherWindow),
		appendCh:    make(chan *appendReq, 256),
		quit:        make(chan struct{}),
		done:        make(chan struct{}),
		syncFile:    (*os.File).Sync,
	}
	j.durable.Store(info.LastSeq)
	j.obs.Counter(CtrRecoveryNanos).Set(info.Duration.Nanoseconds())
	j.obs.Counter(CtrRecoveredEntries).Set(int64(info.Entries))
	j.obs.Counter(CtrWriteFailed).Set(0)
	if j.obs != nil {
		j.histFsync = j.obs.Hist.Get("journal_fsync_seconds", "")
		j.histCommitWait = j.obs.Hist.Get("journal_commit_wait_seconds", "")
	}
	// A restart after an idle run (or a fully-torn tail) leaves a segment
	// already named for the next sequence; it holds no durable entries, so
	// replace it.
	if err := os.Remove(j.segmentName(info.LastSeq + 1)); err != nil && !os.IsNotExist(err) {
		return nil, nil, info, err
	}
	if err := j.openSegmentLocked(); err != nil {
		return nil, nil, info, err
	}
	if !opts.noGroupCommit {
		j.sleepReq = make(chan time.Duration)
		j.woke = make(chan struct{})
		go j.sleeper()
	}
	go j.run()
	return j, sharedisk.NewStoreFromImages(images, 0), info, nil
}

// LogCreateFileSet journals a file-set creation; returns once durable.
func (j *Journal) LogCreateFileSet(fileSet string) error {
	return j.append(Entry{Kind: KindCreateFileSet, FileSet: fileSet})
}

// LogDrop journals the removal of a file set (fleet handoff donated it);
// returns once durable. Replay after a drop leaves no trace of the file
// set, so a restarted donor cannot resurrect a fenced copy.
func (j *Journal) LogDrop(fileSet string) error {
	return j.append(Entry{Kind: KindDrop, FileSet: fileSet})
}

// LogFlush journals a whole image; returns once durable.
func (j *Journal) LogFlush(fileSet string, im sharedisk.Image) error {
	return j.append(Entry{Kind: KindFlush, FileSet: fileSet, Image: im})
}

// LogDelta queues one flush as the delta it applied, at the version it
// produced (d.Base+1). The entry's place in the log is fixed when LogDelta
// returns — deltas queued in version order are written in version order —
// and the returned wait reports when it is durable. d is encoded before the
// return and not kept. trace is the client request that forced the flush
// (0 = untraced): the append's group-commit wait and fsync are recorded as
// spans under it.
func (j *Journal) LogDelta(trace uint64, fileSet string, d sharedisk.Delta) (sharedisk.LogWait, error) {
	r, err := j.enqueue(trace, Entry{
		Kind: KindDelta, FileSet: fileSet,
		Image:   sharedisk.Image{Version: d.Base + 1, Records: d.Puts},
		Removed: d.Removes,
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// appendReqPool recycles append requests — frame buffer, sort scratch and
// reply channel included — so a steady append load encodes into warmed
// buffers instead of allocating one frame per record. The buffered reply channel is
// always drained before a request is pooled, so reuse cannot deliver a
// stale error.
var appendReqPool = sync.Pool{
	New: func() any { return &appendReq{done: make(chan error, 1)} },
}

// append is enqueue followed at once by Wait: the blocking form every entry
// kind but the delta uses.
func (j *Journal) append(e Entry) error {
	r, err := j.enqueue(0, e)
	if err != nil {
		return err
	}
	return r.Wait()
}

// enqueue is the first half of an append: it encodes the entry as a framed
// record and hands it to the group committer. Queue position is log
// position. The pooled request it returns is the second half; its Wait must
// be called exactly once.
//
// TestLogDeltaEnqueueWaitAllocFree holds it to zero allocations.
func (j *Journal) enqueue(trace uint64, e Entry) (*appendReq, error) {
	r := appendReqPool.Get().(*appendReq)
	r.j = j
	r.frame = appendEntryFrame(r.frame[:0], e, &r.keys)
	r.trace = trace
	r.enq = now()
	r.seq = 0
	select {
	case j.appendCh <- r:
		return r, nil
	case <-j.quit:
		appendReqPool.Put(r) // never submitted: safe to recycle
		return nil, ErrClosed
	}
}

// Wait blocks until the queued entry is fsynced (or the journal
// fails/closes). With an ack gate armed (SetAckGate), a locally durable
// entry additionally waits for the gate — semi-synchronous replication.
//
// TestLogDeltaEnqueueWaitAllocFree holds it to zero allocations.
func (r *appendReq) Wait() error {
	j := r.j
	var err error
	select {
	case err = <-r.done:
	case <-j.done:
		// The committer exited; it drained the queue first, so a reply is
		// either buffered or will never come.
		select {
		case err = <-r.done:
		default:
			// Abandoned in the queue; the request cannot be recycled.
			return ErrClosed
		}
	}
	seq := r.seq
	appendReqPool.Put(r)
	if err == nil {
		if gate := j.ackGate.Load(); gate != nil {
			err = (*gate)(seq)
		}
	}
	return err
}

// SetAckGate installs a replication gate: every subsequent append, once
// locally durable, also blocks until gate(seq) returns. The gate receives
// the entry's journal sequence; a nil gate (the default) disables the wait.
// anufsd arms this with the shipper's WaitAcked when -replicate-sync is on,
// making "Flush returned nil" mean "fsynced here AND acked by the standby".
func (j *Journal) SetAckGate(gate func(seq uint64) error) {
	if gate == nil {
		j.ackGate.Store(nil)
		return
	}
	j.ackGate.Store(&gate)
}

// SetOffer installs the ship-ahead hook: the committer calls fn with every
// entry's sequence, request trace and payload as it takes the entry off the
// queue, before the gather window and the fsync. fn runs on the committer's
// goroutine: it must copy the payload (the buffer is reused), must not block,
// and may drop the entry — a Tailer still delivers it once durable. Nothing
// offered is durable yet, and if the journal then fails it never will be;
// a failed journal offers nothing more. A nil fn (the default) removes the
// hook.
func (j *Journal) SetOffer(fn func(seq, trace uint64, payload []byte)) {
	if fn == nil {
		j.offer.Store(nil)
		return
	}
	j.offer.Store(&fn)
}

// DurableSeq returns the sequence of the last fsynced entry (0 before the
// first). Everything at or below it is readable via a Tailer.
func (j *Journal) DurableSeq() uint64 { return j.durable.Load() }

// CommitSignal returns a channel that is closed the next time the durable
// boundary advances. Callers re-fetch it after each wakeup; the canonical
// wait loop captures the channel BEFORE reading DurableSeq so an advance
// between the two cannot be missed.
func (j *Journal) CommitSignal() <-chan struct{} {
	j.sigMu.Lock()
	defer j.sigMu.Unlock()
	if j.commitSig == nil {
		j.commitSig = make(chan struct{})
	}
	return j.commitSig
}

// advanceLocked moves the durable boundary to seq and wakes every
// CommitSignal waiter. Callers hold mu.
func (j *Journal) advanceLocked(seq uint64) {
	j.durable.Store(seq)
	j.sigMu.Lock()
	if j.commitSig != nil {
		close(j.commitSig)
		j.commitSig = nil
	}
	j.sigMu.Unlock()
}

// Close commits everything queued, fsyncs, and closes the active segment.
// Further appends return ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		<-j.done
		return j.closeErr
	}
	j.closed = true
	j.mu.Unlock()
	close(j.quit)
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		if err := j.f.Close(); err != nil && j.closeErr == nil {
			j.closeErr = err
		}
		j.f = nil
	}
	return j.closeErr
}

// segmentName returns the path of the segment whose first entry is seq.
func (j *Journal) segmentName(seq uint64) string {
	return filepath.Join(j.dir, fmt.Sprintf("wal-%016x.log", seq))
}

// openSegmentLocked starts a fresh active segment for the entry after the
// durable boundary. Callers hold mu (or have exclusive access during Open).
func (j *Journal) openSegmentLocked() error {
	next := j.durable.Load() + 1
	if j.f != nil {
		if err := j.f.Close(); err != nil {
			return err
		}
		j.f = nil
	}
	f, err := os.OpenFile(j.segmentName(next), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [headerLen]byte
	putHeader(&hdr, segMagic, next)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(j.dir); err != nil {
		f.Close()
		return err
	}
	j.f = f
	j.segFirst = next
	j.segSize = headerLen
	j.obs.Counter(CtrSegments).Add(1)
	return nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
