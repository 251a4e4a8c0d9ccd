package sdk

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"anufs/internal/wire"
)

// fakeSend stands in for Client.sendBatch: it records every batch, and a
// batch of a file set named in hold blocks until that channel is closed.
// An item whose path is "/bad" fails alone; a batch holding "/boom" fails
// whole.
type fakeSend struct {
	mu      sync.Mutex
	batches []sentBatch
	hold    map[string]chan struct{}
}

type sentBatch struct {
	fileSet string
	paths   []string
}

func (f *fakeSend) send(fileSet string, _ bool, items []wire.BatchItem) ([]wire.BatchResult, error) {
	b := sentBatch{fileSet: fileSet}
	for _, it := range items {
		b.paths = append(b.paths, it.Path)
	}
	f.mu.Lock()
	f.batches = append(f.batches, b)
	gate := f.hold[fileSet]
	f.mu.Unlock()
	if gate != nil {
		<-gate
	}
	results := make([]wire.BatchResult, len(items))
	for i, it := range items {
		switch it.Path {
		case "/boom":
			return nil, errors.New("fake: batch failed")
		case "/bad":
			results[i].Err = "fake: item refused"
		}
	}
	return results, nil
}

// sent returns the batches recorded so far for fileSet.
func (f *fakeSend) sent(fileSet string) []sentBatch {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []sentBatch
	for _, b := range f.batches {
		if b.fileSet == fileSet {
			out = append(out, b)
		}
	}
	return out
}

func newTestBatcher(f *fakeSend, max int) *batcher {
	return newBatcher(f.send, Options{MaxBatch: max})
}

// folded blocks until n items are folded behind fileSet's outstanding batch.
func folded(b *batcher, fileSet string, n int) {
	for {
		b.mu.Lock()
		st := b.sets[fileSet]
		got := 0
		if st != nil && st.next != nil {
			got = len(st.next.items)
		}
		b.mu.Unlock()
		if got >= n {
			return
		}
		runtime.Gosched()
	}
}

// requireIdle checks the batcher holds nothing: no file set has a batch
// outstanding or folding.
func requireIdle(t *testing.T, b *batcher) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.sets) != 0 {
		t.Fatalf("batcher still tracks %d file sets: %+v", len(b.sets), b.sets)
	}
}

// TestBatcherLoneAddSendsAtOnce: a write that finds nothing of its file set
// outstanding is sent by add itself, alone, before add returns — no timer,
// no other goroutine.
func TestBatcherLoneAddSendsAtOnce(t *testing.T) {
	f := &fakeSend{}
	b := newTestBatcher(f, 64)
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if err := b.add("vol", wire.BatchItem{Op: wire.OpUpdate, Path: fmt.Sprintf("/p%d", i)}); err != nil {
			t.Fatal(err)
		}
		if got := f.sent("vol"); len(got) != i+1 || len(got[i].paths) != 1 {
			t.Fatalf("after lone add %d: sent %+v, want %d batches of one", i, got, i+1)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("lone adds left %d goroutines behind", after-before)
	}
	requireIdle(t, b)
	if ops, sent := b.ops.Load(), b.sent.Load(); ops != 3 || sent != 3 {
		t.Fatalf("%d ops in %d batches, want 3 in 3", ops, sent)
	}
}

// TestBatcherFoldsBehindOutstandingBatch: while one batch of a file set is
// outstanding, N later writes to it fold into exactly one follow-up batch
// of N, sent when the first is acked; writes to another file set are not
// held up; every waiter gets its own item's outcome.
func TestBatcherFoldsBehindOutstandingBatch(t *testing.T) {
	const n = 5
	gate := make(chan struct{})
	f := &fakeSend{hold: map[string]chan struct{}{"vol": gate}}
	b := newTestBatcher(f, 64)
	var wg sync.WaitGroup
	errs := make([]error, n+1)
	add := func(i int, path string) {
		defer wg.Done()
		errs[i] = b.add("vol", wire.BatchItem{Op: wire.OpUpdate, Path: path})
	}
	wg.Add(1)
	go add(0, "/first")
	for len(f.sent("vol")) == 0 { // the lone batch is on the wire, held
		runtime.Gosched()
	}
	for i := 1; i <= n; i++ {
		wg.Add(1)
		path := fmt.Sprintf("/p%d", i)
		if i == 3 {
			path = "/bad"
		}
		go add(i, path)
	}
	folded(b, "vol", n)
	if got := f.sent("vol"); len(got) != 1 {
		t.Fatalf("with the first batch outstanding, sent %+v; want the later writes folding, not sent", got)
	}
	if err := b.add("other", wire.BatchItem{Op: wire.OpUpdate, Path: "/o"}); err != nil {
		t.Fatalf("a write to another file set, with vol's batch outstanding: %v", err)
	}
	close(gate)
	wg.Wait()
	got := f.sent("vol")
	if len(got) != 2 || len(got[0].paths) != 1 || len(got[1].paths) != n {
		t.Fatalf("sent %+v, want the lone write then one batch of %d", got, n)
	}
	for i, err := range errs {
		if (i == 3) != (err != nil) {
			t.Errorf("waiter %d got %v; only the refused item's waiter should see an error", i, err)
		}
	}
	requireIdle(t, b)
	// n+1 ops to vol in 2 batches, 1 to other in 1.
	if ops, sent := b.ops.Load(), b.sent.Load(); ops != n+2 || sent != 3 {
		t.Fatalf("%d ops in %d batches, want %d in 3 (fold > 1)", ops, sent, n+2)
	}
}

// TestBatcherFailedBatchDoesNotStrandTheNext: when the outstanding batch
// fails, its waiter gets the error and the batch folded behind it is still
// sent, with its own outcome.
func TestBatcherFailedBatchDoesNotStrandTheNext(t *testing.T) {
	gate := make(chan struct{})
	f := &fakeSend{hold: map[string]chan struct{}{"vol": gate}}
	b := newTestBatcher(f, 64)
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- b.add("vol", wire.BatchItem{Op: wire.OpUpdate, Path: "/boom"}) }()
	for len(f.sent("vol")) == 0 {
		runtime.Gosched()
	}
	go func() { second <- b.add("vol", wire.BatchItem{Op: wire.OpUpdate, Path: "/fine"}) }()
	folded(b, "vol", 1)
	close(gate)
	if err := <-first; err == nil {
		t.Fatal("the failed batch's waiter got no error")
	}
	if err := <-second; err != nil {
		t.Fatalf("the batch folded behind a failed one: %v", err)
	}
	requireIdle(t, b)
}

// TestBatcherFullBatchGoesImmediately: a folding batch that reaches
// MaxBatch is sent by the writer that filled it, without waiting for the
// outstanding batch.
func TestBatcherFullBatchGoesImmediately(t *testing.T) {
	const max = 3
	gate := make(chan struct{})
	f := &fakeSend{hold: map[string]chan struct{}{"vol": gate}}
	b := newTestBatcher(f, max)
	var wg sync.WaitGroup
	add := func(path string) {
		defer wg.Done()
		if err := b.add("vol", wire.BatchItem{Op: wire.OpUpdate, Path: path}); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go add("/first")
	for len(f.sent("vol")) == 0 {
		runtime.Gosched()
	}
	for i := 0; i < max; i++ {
		wg.Add(1)
		go add(fmt.Sprintf("/p%d", i))
	}
	for len(f.sent("vol")) < 2 { // the full batch is sent while the first is still held
		runtime.Gosched()
	}
	if got := f.sent("vol"); len(got[1].paths) != max {
		t.Fatalf("second batch %+v, want the %d folded writes", got[1], max)
	}
	close(gate)
	wg.Wait()
	requireIdle(t, b)
}

// TestBatcherFlushAndCloseLeaveNothingPending: flushSet, Flush and Close
// each send what is folding without waiting for the batch ahead and return
// once it is acked; after Close, add refuses.
func TestBatcherFlushAndCloseLeaveNothingPending(t *testing.T) {
	for name, flush := range map[string]func(*batcher){
		"flushSet": func(b *batcher) { b.flushSet("vol") },
		"Flush":    (*batcher).Flush,
		"Close":    (*batcher).Close,
	} {
		t.Run(name, func(t *testing.T) {
			gate := make(chan struct{})
			f := &fakeSend{hold: map[string]chan struct{}{"vol": gate}}
			b := newTestBatcher(f, 64)
			var wg sync.WaitGroup
			add := func(path string) {
				defer wg.Done()
				if err := b.add("vol", wire.BatchItem{Op: wire.OpUpdate, Path: path}); err != nil {
					t.Error(err)
				}
			}
			wg.Add(1)
			go add("/first")
			for len(f.sent("vol")) == 0 {
				runtime.Gosched()
			}
			wg.Add(2)
			go add("/a")
			go add("/b")
			folded(b, "vol", 2)
			// The folding batch goes now, though the first is still held: the
			// flusher ships it itself and so blocks on the held send.
			flushed := make(chan struct{})
			go func() { flush(b); close(flushed) }()
			for len(f.sent("vol")) < 2 {
				runtime.Gosched()
			}
			if got := f.sent("vol"); len(got[1].paths) != 2 {
				t.Fatalf("flushed batch %+v, want the two folded writes", got[1])
			}
			close(gate)
			<-flushed
			wg.Wait()
			requireIdle(t, b)
			if name == "Close" {
				if err := b.add("vol", wire.BatchItem{Op: wire.OpUpdate, Path: "/late"}); !errors.Is(err, errBatcherClosed) {
					t.Fatalf("add after Close = %v", err)
				}
			}
		})
	}
}
