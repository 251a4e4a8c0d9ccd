package obs

import (
	"sync"
	"time"
)

// Span is one timestamped segment of a request's journey through the
// daemon: the wire handler, a server queue wait, the store apply, the
// journal group-commit wait, an fsync. Spans sharing a Trace ID belong to
// the same client request.
type Span struct {
	Trace   uint64 `json:"trace"`
	Name    string `json:"name"`
	Op      string `json:"op,omitempty"`
	FileSet string `json:"fileset,omitempty"`
	// Server is the metadata-server ID the span ran on; -1 when the span is
	// not tied to one (wire handling, journal batches).
	Server int           `json:"server"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur"`
	Err    string        `json:"err,omitempty"`
	// ID identifies this span within the trace (0 = unidentified; legacy
	// spans and leaf spans that nothing parents can stay at 0). Parent is
	// the ID of the causally enclosing span on the upstream hop, carried
	// across processes by the wire trace context.
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	// Node names the process that recorded the span (stamped by the ring's
	// configured node identity when empty). The fleet stitcher keys
	// clock-skew adjustment on it.
	Node string `json:"node,omitempty"`
	// Links are other trace IDs this span is causally tied to — e.g. a
	// client op folded into a batch links to the batch's trace.
	Links []uint64 `json:"links,omitempty"`
}

// SpanRing is a bounded in-memory ring of the most recent spans. Writers
// never block and never allocate beyond the fixed backing array; when the
// ring is full the oldest span is overwritten. Safe for concurrent use.
type SpanRing struct {
	mu   sync.Mutex
	buf  []Span
	next int // index the next span is written to
	full bool
	node string // default Node stamp for spans added without one
}

// NewSpanRing creates a ring holding up to capacity spans.
func NewSpanRing(capacity int) *SpanRing {
	if capacity <= 0 {
		capacity = 1
	}
	return &SpanRing{buf: make([]Span, capacity)}
}

// Add records a span, evicting the oldest if the ring is full. It runs
// once per traced request stage; the ring buffer is preallocated so Add
// never allocates.
//
// TestObserveAndSpanAllocFree holds it to zero allocations.
func (r *SpanRing) Add(s Span) {
	r.mu.Lock()
	if s.Node == "" {
		s.Node = r.node
	}
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// SetNode sets the node identity stamped onto spans added without one.
func (r *SpanRing) SetNode(node string) {
	r.mu.Lock()
	r.node = node
	r.mu.Unlock()
}

// Snapshot returns up to n of the most recent spans, oldest first. n <= 0
// means all retained spans.
func (r *SpanRing) Snapshot(n int) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := r.next
	if r.full {
		size = len(r.buf)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Span, 0, n)
	// Oldest retained span sits at next when full, at 0 otherwise; we want
	// the newest n in chronological order.
	start := r.next - n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// ByTrace returns every retained span with the given trace ID, oldest
// first.
func (r *SpanRing) ByTrace(trace uint64) []Span {
	all := r.Snapshot(0)
	out := all[:0]
	for _, s := range all {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}
