package live

import (
	"sync"

	"anufs/internal/namespace"
)

// taskQueue is a server's request queue: a weighted-fair scheduler over
// per-volume FIFO queues (stride scheduling). Each tenant volume gets its
// own bounded queue and a pass value that advances by 1/weight per served
// task, and the dispatcher always serves the non-empty volume with the
// smallest pass. A hot tenant that saturates its own queue therefore only
// delays itself — a cold tenant's next request waits behind at most a
// weighted handful of the hot tenant's tasks, never behind its whole
// backlog.
//
// Backpressure is per volume: push blocks only when the TARGET tenant's
// queue is full, so a saturated tenant cannot block other tenants'
// submitters either.
type taskQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	// depth bounds each per-volume queue.
	depth   int
	vols    map[string]*volQueue
	weights map[string]float64
	// vtime is the pass of the most recently served volume: the scheduler's
	// virtual clock. A volume going from idle to busy starts at the clock,
	// not at its stale pass, so sleeping does not bank an unfair burst.
	vtime  float64
	size   int
	closed bool
}

// volQueue is one volume's FIFO within a taskQueue.
type volQueue struct {
	tasks  []task
	head   int // index of the next task to pop; slice compacts when drained
	pass   float64
	weight float64
}

func newTaskQueue(depth int) *taskQueue {
	q := &taskQueue{depth: depth, vols: map[string]*volQueue{}}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// setWeights replaces the per-volume weights (volumes absent from w keep
// weight 1). Existing backlogs keep their pass — only the rate of future
// pass advancement changes.
func (q *taskQueue) setWeights(w map[string]float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.weights = w
	for vol, vq := range q.vols {
		vq.weight = q.weightOfLocked(vol)
	}
}

func (q *taskQueue) weightOfLocked(vol string) float64 {
	if w, ok := q.weights[vol]; ok && w > 0 {
		return w
	}
	return 1
}

// push enqueues one task, blocking while the target volume's queue is
// full. Returns ErrStopped once the queue is closed.
func (q *taskQueue) push(t task) error {
	vol := namespace.VolumeOf(t.fileSet)
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return ErrStopped
		}
		vq := q.vols[vol]
		if vq == nil || len(vq.tasks)-vq.head < q.depth {
			break
		}
		q.cond.Wait()
	}
	vq := q.vols[vol]
	if vq == nil {
		vq = &volQueue{pass: q.vtime, weight: q.weightOfLocked(vol)}
		q.vols[vol] = vq
	} else if vq.head == len(vq.tasks) && vq.pass < q.vtime {
		// Re-activating after idle: join at the virtual clock.
		vq.pass = q.vtime
	}
	vq.tasks = append(vq.tasks, t)
	q.size++
	q.cond.Broadcast()
	return nil
}

// pop dequeues the next task by weighted-fair order, blocking while the
// queue is empty. Returns ok=false once the queue is closed AND drained —
// close does not drop queued work, matching the channel-drain semantics
// this queue replaced.
func (q *taskQueue) pop() (task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.size == 0 {
		return task{}, false
	}
	var best *volQueue
	for _, vq := range q.vols {
		if vq.head == len(vq.tasks) {
			continue
		}
		if best == nil || vq.pass < best.pass {
			best = vq
		}
	}
	t := best.tasks[best.head]
	best.tasks[best.head] = task{} // release references for GC
	best.head++
	if best.head == len(best.tasks) {
		best.tasks = best.tasks[:0]
		best.head = 0
	}
	q.size--
	q.vtime = best.pass
	best.pass += 1 / best.weight
	q.cond.Broadcast()
	return t, true
}

// depthOf reports a volume's current backlog, for gauges and tests.
func (q *taskQueue) depthOf(vol string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if vq, ok := q.vols[vol]; ok {
		return len(vq.tasks) - vq.head
	}
	return 0
}

// close rejects future pushes (they return ErrStopped), wakes every
// blocked pusher, and lets pop drain what is already queued.
func (q *taskQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
