package journal

import (
	"fmt"
	"time"

	"anufs/internal/obs"
)

// Group commit. One committer goroutine owns the write path: it pulls the
// first queued append, takes whatever else is queued at that moment (plus,
// with FsyncInterval > 0, whatever arrives within that gather window),
// writes the whole batch with one write syscall and one fsync, and then
// releases every waiter. Appends that arrive while that fsync is in flight
// form the next batch. With no window the fsync is the only gather window:
// a lone append never waits for company and concurrent ones share a sync
// exactly when the disk is what they would have waited for anyway (cf.
// IOPathTune: a stage's batching is set by that stage's own signal, not by
// a constant).
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
			return
		}
		j.commit(j.gather(first))
	}
}

// gather collects the batch that will share first's fsync: what is queued
// now and, with a gather window, what arrives before it closes. The slice
// is the committer's own, reused batch after batch.
func (j *Journal) gather(first *appendReq) []*appendReq {
	j.batch = append(j.batch[:0], first)
	if j.opts.NoGroupCommit {
		return j.batch
	}
	if j.opts.FsyncInterval > 0 {
		//anufs:allow simdeterminism the window decides which frames share an fsync, never a frame's bytes or their order
		t := time.NewTimer(j.opts.FsyncInterval)
		defer t.Stop()
		for {
			select {
			case r := <-j.appendCh:
				j.batch = append(j.batch, r)
			case <-t.C:
				return j.batch
			case <-j.quit:
				return j.batch
			}
		}
	}
	for {
		select {
		case r := <-j.appendCh:
			j.batch = append(j.batch, r)
		default:
			return j.batch
		}
	}
}

// commit writes and fsyncs one batch, then wakes its waiters. With obs
// wired, every record's group-commit wait (enqueue → durable) lands in a
// histogram, and records carrying a request trace emit wait spans — the
// per-request view of the amortization trade-off.
func (j *Journal) commit(batch []*appendReq) {
	err := j.writeBatch(batch)
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
// blocked in append gets a durable ack rather than ErrClosed.
func (j *Journal) finalDrain() {
	for {
		select {
		case r := <-j.appendCh:
			j.commit(j.gather(r))
		default:
			return
		}
	}
}

// writeBatch appends the batch's frames to the active segment with a single
// write and a single fsync (NoGroupCommit batches are single records, so
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
	if j.obs != nil {
		syncDur := now().Sub(syncStart)
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
	for i, r := range batch {
		r.seq = j.nextSeq + uint64(i)
		if r.trace != 0 {
			// Remember which trace appended this sequence so replication can
			// stamp the shipped entry (TraceOf).
			j.traceSeq[r.seq%traceRingLen] = r.seq
			j.traceID[r.seq%traceRingLen] = r.trace
		}
	}
	j.nextSeq += uint64(len(batch))
	j.signalCommitLocked()
	j.counters.Add(CtrRecords, int64(len(batch)))
	j.counters.Add(CtrBytes, int64(len(buf)))
	j.counters.Add(CtrFsyncs, 1)
	j.counters.Add(CtrBatches, 1)
	j.counters.Max(CtrMaxBatch, int64(len(batch)))
	return nil
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
	j.counters.Set(CtrWriteFailed, 1)
	if j.f != nil {
		_ = j.f.Truncate(j.segSize) // best effort, see above
	}
	return j.failed
}
