package journal

import (
	"errors"
	"fmt"
	"time"

	"anufs/internal/obs"
)

// Group commit. One committer goroutine owns the write path: it pulls the
// first queued append, takes whatever else is queued at that moment plus
// whatever arrives within the gather window, writes the whole batch with one
// write syscall and one fsync, and then releases every waiter. Appends that
// arrive while that fsync is in flight form the next batch.
//
// The window is one fsync: the median of the committer's last fsyncRingLen
// fsyncs, measured here, on this disk (cf. IOPathTune: a stage's batching
// is set by that stage's own signal, not by a constant). A fresh journal has
// measured nothing and waits for nothing. On a replicating daemon the
// standby writes and fsyncs what was offered while the window runs, so the
// two fsyncs do not collide on a disk they share; a lone writer pays at most
// one extra fsync for that. DESIGN.md §9 has the measurements.
// Options.FsyncInterval > 0 fixes the window instead.
//
// An entry gets its sequence when the committer takes it off the queue, and
// is offered to the shipper (SetOffer) in the same step: before the window,
// before the write. The standby's write and fsync then run beside the
// primary's window and fsync, and a semi-synchronous append is acknowledged
// at the later of the two, not at their sum. The price is that a standby may
// hold entries its primary never made durable; see DESIGN.md §11 for what
// promotion keeps and how a restarted primary realigns.
//
// The window is slept, not timed. A Go timer in an otherwise idle process is
// waited out in epoll_wait, which counts whole milliseconds and rounds a
// remainder up: a 1 ms timer lasts ≈ 1.1 ms alone but ≈ 1.6 ms when any
// socket wakes the process part-way (a standby's ack does exactly that), so
// the window's length would be set by unrelated network traffic. One
// long-lived helper goroutine (sleeper) blocks in nanosleep instead, which
// ends within ≈ 100 µs of nominal whatever else wakes the process, while the
// committer keeps taking and offering arrivals.
//
// An append is two calls: enqueue puts the frame in the committer's queue,
// where its position is its position in the log, and Wait blocks until the
// batch it rode is on disk. A caller may enqueue and go on to other work —
// the metadata server's owner goroutine does, which is how several appends
// from one daemon come to share a batch — and collect the outcome later, so
// an entry can be queued behind one that then fails. The committer
// therefore fails stop: the first failed write or fsync ends appending for
// good (see failLocked), and every entry behind it gets that error.

// run is the committer loop.
func (j *Journal) run() {
	defer close(j.done)
	for {
		var first *appendReq
		select {
		case first = <-j.appendCh:
		case <-j.quit:
			j.finalDrain()
			if j.sleepReq != nil {
				close(j.sleepReq)
				<-j.woke // closed by the sleeper as it returns
			}
			return
		}
		j.commit(j.gather(first, true))
	}
}

// sleeper is the gather window's clock: one blocking sleep per request, of
// the length the request carries, in a goroutine of its own so that only
// this one waits in the kernel. It returns when the committer closes
// sleepReq on its way out.
func (j *Journal) sleeper() {
	defer close(j.woke)
	for d := range j.sleepReq {
		sleepFor(d)
		j.woke <- struct{}{}
	}
}

// gather collects the batch that will share first's fsync: with window
// true, what arrives before the gather window closes, and in every case
// what is queued at that moment. The slice is the committer's own, reused
// batch after batch.
func (j *Journal) gather(first *appendReq, window bool) []*appendReq {
	j.batch = j.batch[:0]
	j.take(first)
	if j.opts.noGroupCommit {
		return j.batch
	}
	if window {
		d := j.opts.FsyncInterval
		if d <= 0 {
			d = j.fsyncs.median() // 0 before the first fsync
		}
		j.ctrWindow.Set(d.Microseconds())
		if d > 0 {
			j.sleepReq <- d
		}
		for waiting := d > 0; waiting; {
			select {
			case r := <-j.appendCh:
				j.take(r)
			case <-j.woke:
				waiting = false
			}
		}
	}
	for {
		select {
		case r := <-j.appendCh:
			j.take(r)
		default:
			return j.batch
		}
	}
}

// take adds r to the batch under the next sequence and offers it to the
// shipper. Sequences follow the durable boundary: one batch is in the
// making at a time, and the boundary moves only when it commits.
func (j *Journal) take(r *appendReq) {
	r.seq = j.durable.Load() + 1 + uint64(len(j.batch))
	j.batch = append(j.batch, r)
	if j.stopped {
		return // the journal failed: this sequence will never name an entry
	}
	if offer := j.offer.Load(); offer != nil {
		(*offer)(r.seq, r.trace, r.frame[frameHeaderLen:])
	}
}

// commit writes and fsyncs one batch, then wakes its waiters. With obs
// wired, every record's group-commit wait (enqueue → durable) lands in a
// histogram, and records carrying a request trace emit wait spans — the
// per-request view of the amortization trade-off.
func (j *Journal) commit(batch []*appendReq) {
	err := j.writeBatch(batch)
	j.stopped = j.stopped || errors.Is(err, ErrFailed)
	done := now()
	if j.obs != nil {
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		for _, r := range batch {
			wait := done.Sub(r.enq)
			j.histCommitWait.Observe(wait)
			if r.trace != 0 {
				j.obs.Spans.Add(obs.Span{
					Trace: r.trace, Name: "journal-commit-wait", Server: -1,
					Start: r.enq, Dur: wait, Err: errStr,
				})
			}
		}
	}
	for _, r := range batch {
		r.done <- err
	}
}

// finalDrain commits everything still queued at Close time, so a caller
// blocked in append gets a durable ack rather than ErrClosed. Nothing more
// can arrive, so it waits out no window.
func (j *Journal) finalDrain() {
	for {
		select {
		case r := <-j.appendCh:
			j.commit(j.gather(r, false))
		default:
			return
		}
	}
}

// writeBatch appends the batch's frames to the active segment with a single
// write and a single fsync (noGroupCommit batches are single records, so
// that degenerates to one fsync per record), rotating first if the segment
// is over its size threshold.
func (j *Journal) writeBatch(batch []*appendReq) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return j.failed
	}
	if j.f == nil {
		return ErrClosed
	}
	first := j.durable.Load() + 1
	if batch[0].seq != first {
		// The boundary moved while the batch was gathered: this journal is
		// also being fed shipped entries. What was offered under these
		// sequences names other entries now.
		return j.failLocked(fmt.Errorf("batch gathered at sequence %d, log is at %d", batch[0].seq, first))
	}
	// Rotate only a segment that holds entries — an empty active segment is
	// already the freshest possible (and re-creating it would collide on
	// O_EXCL when SegmentBytes is smaller than the header).
	if j.segSize >= j.opts.SegmentBytes && j.segSize > headerLen {
		if err := j.openSegmentLocked(); err != nil {
			return j.failLocked(err)
		}
	}
	buf := j.writeBuf[:0]
	for _, r := range batch {
		buf = append(buf, r.frame...)
	}
	j.writeBuf = buf // keep the grown buffer for the next batch
	if _, err := j.f.Write(buf); err != nil {
		return j.failLocked(err)
	}
	syncStart := now()
	if err := j.syncFile(j.f); err != nil {
		return j.failLocked(err)
	}
	syncDur := now().Sub(syncStart)
	j.fsyncs.add(syncDur)
	if j.obs != nil {
		j.histFsync.Observe(syncDur)
		// Attribute the fsync to the first traced record in the batch, so a
		// traced request's timeline includes the sync it rode.
		for _, r := range batch {
			if r.trace != 0 {
				j.obs.Spans.Add(obs.Span{
					Trace: r.trace, Name: "fsync", Server: -1,
					Start: syncStart, Dur: syncDur,
				})
				break
			}
		}
	}
	j.segSize += int64(len(buf))
	j.advanceLocked(batch[len(batch)-1].seq)
	j.countCommit(len(batch), len(buf))
	return nil
}

// fsyncRingLen is how many recent fsyncs the gather window is the median of.
const fsyncRingLen = 32

// fsyncRing holds the last fsyncRingLen fsync durations, oldest overwritten
// first. The journal's is the committer's own: writeBatch adds under mu,
// gather reads.
type fsyncRing struct {
	d    [fsyncRingLen]time.Duration
	n    int // slots filled; the first n hold durations until the ring wraps
	next int // slot the next duration goes in
}

func (r *fsyncRing) add(d time.Duration) {
	r.d[r.next] = d
	r.next = (r.next + 1) % fsyncRingLen
	r.n = min(r.n+1, fsyncRingLen)
}

// median returns the held durations' median (the upper one of an even
// count), or 0 when the ring is empty. A stall moves it only once half the
// ring is stalls. It sorts a copy on the stack by insertion, so it allocates
// nothing (TestLogDeltaEnqueueWaitAllocFree runs it every append).
func (r *fsyncRing) median() time.Duration {
	if r.n == 0 {
		return 0
	}
	var s [fsyncRingLen]time.Duration
	for i, v := range r.d[:r.n] {
		k := i
		for ; k > 0 && s[k-1] > v; k-- {
			s[k] = s[k-1]
		}
		s[k] = v
	}
	return s[r.n/2]
}

// countCommit records one written-and-fsynced batch.
func (j *Journal) countCommit(records, bytes int) {
	j.ctrRecords.Add(int64(records))
	j.ctrBytes.Add(int64(bytes))
	j.ctrFsyncs.Add(1)
	j.ctrBatches.Add(1)
	j.ctrMaxBatch.Max(int64(records))
}

// failLocked stops the journal at its first failed write or fsync and
// returns the error every append from now on gets. Entries may already be
// queued behind the failed batch, their file sets' images already stepped
// past it; writing them would put a delta in the log above a hole, and
// replay would stop there and drop whatever was acknowledged later. After a
// failed fsync the page cache no longer vouches for earlier writes either,
// so appending behind one was never safe. What the failed batch did get
// into the file is cut off again, best effort, so the segment ends at the
// last acknowledged entry; if the cut fails too, recovery drops a torn tail
// and may replay whole frames nobody was told were durable, which the
// contract allows. Callers hold mu.
func (j *Journal) failLocked(cause error) error {
	j.failed = fmt.Errorf("%w: %w", ErrFailed, cause)
	j.obs.Counter(CtrWriteFailed).Set(1)
	if j.f != nil {
		_ = j.f.Truncate(j.segSize) // best effort, see above
	}
	return j.failed
}
