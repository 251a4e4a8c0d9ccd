package sdk

import (
	"errors"
	"sync"
	"time"

	"anufs/internal/obs"
	"anufs/internal/wire"
)

// Batcher counter names.
const (
	CtrBatchesSent = "sdk_batches_sent"
	CtrBatchedOps  = "sdk_batched_ops"
)

var errBatcherClosed = errors.New("sdk: client closed")

// batcher coalesces small writes per file set on the file set's own
// signal, not on a clock: a write that finds no batch of its file set
// outstanding is sent at once, alone, on the caller's goroutine; writes that
// arrive while one is outstanding fold into the single batch that follows
// it, which its first waiter sends the moment the one ahead is acked (or at
// once when it fills). A lone writer never waits for company, and
// concurrent writers share a round trip, an owner-queue wait and (durable) a
// journal group commit exactly when the round trip in flight is what they
// would have waited behind anyway. Each caller still blocks until its own
// item's outcome arrives, so the API stays synchronous per op. The batcher
// starts no goroutine and arms no timer.
type batcher struct {
	send    func(fileSet string, durable bool, items []wire.BatchItem) ([]wire.BatchResult, error)
	hist    *obs.Histogram // batch sizes; buckets read as counts
	sent    *obs.Counter   // CtrBatchesSent
	ops     *obs.Counter   // CtrBatchedOps
	max     int
	durable bool

	mu     sync.Mutex
	sets   map[string]*setState // file sets with a batch outstanding
	closed bool
}

// setState is one file set's traffic: how many of its batches are on the
// wire, and the batch folding behind them.
type setState struct {
	outstanding int
	next        *pendingBatch
}

type pendingBatch struct {
	items []wire.BatchItem
	done  []chan error
	// lead is closed when the last batch ahead is acked: the batch's first
	// waiter, who selects on it, then ships this one.
	lead chan struct{}
}

func newBatcher(send func(string, bool, []wire.BatchItem) ([]wire.BatchResult, error), opts Options) *batcher {
	b := &batcher{
		send:    send,
		sent:    opts.Obs.Counter(CtrBatchesSent),
		ops:     opts.Obs.Counter(CtrBatchedOps),
		max:     opts.MaxBatch,
		durable: opts.Durable,
		sets:    map[string]*setState{},
	}
	if opts.Obs != nil {
		b.hist = opts.Obs.Hist.Get("sdk_batch_items", "")
	}
	return b
}

// add sends or folds one item for fileSet and blocks until its batch is
// acked.
func (b *batcher) add(fileSet string, item wire.BatchItem) error {
	ch := make(chan error, 1)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errBatcherClosed
	}
	st := b.sets[fileSet]
	if st == nil {
		// Nothing of this file set is on the wire: go now.
		b.sets[fileSet] = &setState{outstanding: 1}
		b.mu.Unlock()
		b.ship(fileSet, &pendingBatch{items: []wire.BatchItem{item}, done: []chan error{ch}})
		return <-ch
	}
	pb := st.next
	first := pb == nil
	if first {
		pb = &pendingBatch{lead: make(chan struct{})}
		st.next = pb
	}
	pb.items = append(pb.items, item)
	pb.done = append(pb.done, ch)
	full := len(pb.items) >= b.max
	if full {
		b.detachLocked(fileSet)
	}
	b.mu.Unlock()
	switch {
	case full:
		// The filling caller ships the batch itself — no handoff latency
		// at saturation, when batches fill faster than they are acked.
		b.ship(fileSet, pb)
	case first:
		select {
		case <-pb.lead:
			b.ship(fileSet, pb)
		case err := <-ch: // someone else shipped it: it filled, or a flush took it
			return err
		}
	}
	return <-ch
}

// detachLocked takes fileSet's folding batch, if any, for the caller to ship.
// Callers hold mu.
func (b *batcher) detachLocked(fileSet string) *pendingBatch {
	st := b.sets[fileSet]
	if st == nil || st.next == nil {
		return nil
	}
	pb := st.next
	st.next = nil
	st.outstanding++
	return pb
}

// flushSet ships fileSet's folding batch now, without waiting for the one
// ahead of it (a read that needs its writes visible), and returns when it
// is acked.
func (b *batcher) flushSet(fileSet string) {
	b.mu.Lock()
	pb := b.detachLocked(fileSet)
	b.mu.Unlock()
	if pb != nil {
		b.ship(fileSet, pb)
	}
}

// Flush ships every folding batch and returns when all are acked.
func (b *batcher) Flush() {
	b.mu.Lock()
	detached := map[string]*pendingBatch{}
	for fs := range b.sets {
		if pb := b.detachLocked(fs); pb != nil {
			detached[fs] = pb
		}
	}
	b.mu.Unlock()
	for fs, pb := range detached {
		b.ship(fs, pb)
	}
}

// Close flushes and refuses further adds.
func (b *batcher) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.Flush()
}

// ship sends one batch, delivers per-item outcomes to the waiters, and
// lets the file set's next batch go.
func (b *batcher) ship(fileSet string, pb *pendingBatch) {
	if b.hist != nil {
		// Size histogram buckets read as item counts, not seconds.
		b.hist.Observe(time.Duration(len(pb.items)))
	}
	b.sent.Add(1)
	b.ops.Add(int64(len(pb.items)))
	results, err := b.send(fileSet, b.durable, pb.items)
	for i, ch := range pb.done {
		switch {
		case err != nil:
			ch <- err
		case results[i].Err != "":
			ch <- errors.New(results[i].Err)
		default:
			ch <- nil
		}
	}
	b.acked(fileSet)
}

// acked retires one outstanding batch of fileSet. When it was the last, the
// batch that folded behind it is released to its first waiter, or the file
// set goes idle: its next write is sent at once.
func (b *batcher) acked(fileSet string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.sets[fileSet]
	st.outstanding--
	if st.outstanding > 0 {
		return
	}
	if st.next == nil {
		delete(b.sets, fileSet)
		return
	}
	st.outstanding = 1
	close(st.next.lead)
	st.next = nil
}
