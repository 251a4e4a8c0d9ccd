package wire

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"anufs/internal/live"
	"anufs/internal/sharedisk"
)

// goroutineID reads the calling goroutine's ID from its stack header,
// "goroutine N [running]:".
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// handlerLog is a FrameServer Handle that records which goroutine served
// each request. With hold > 0 every request waits until hold of them are in
// Handle at once, which forces that many handlers.
type handlerLog struct {
	mu      sync.Mutex
	ids     map[string]int
	arrived int
	hold    int
	all     chan struct{}
}

func newHandlerLog(hold int) *handlerLog {
	return &handlerLog{ids: map[string]int{}, hold: hold, all: make(chan struct{})}
}

func (h *handlerLog) handle(req Request) Response {
	h.mu.Lock()
	h.ids[goroutineID()]++
	h.arrived++
	if h.arrived == h.hold {
		close(h.all)
	}
	hold := h.arrived <= h.hold
	h.mu.Unlock()
	if hold {
		<-h.all
	}
	return Response{ID: req.ID}
}

func (h *handlerLog) handlers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.ids)
}

// serveFrames runs a FrameServer over one end of an in-memory connection and
// returns the other end's framing and a channel closed when Serve returns.
func serveFrames(t *testing.T, handle func(Request) Response) (net.Conn, *FrameWriter, *FrameReader, <-chan struct{}) {
	t.Helper()
	srv, cli := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		(&FrameServer{Handle: handle}).Serve(srv, MaxFramePayload)
		srv.Close()
	}()
	t.Cleanup(func() {
		cli.Close()
		<-served
	})
	return cli, NewFrameWriter(cli, MaxFramePayload), NewFrameReader(cli, MaxFramePayload), served
}

// pingRoundTrips sends n pings one at a time, each after the last answer.
func pingRoundTrips(t *testing.T, fw *FrameWriter, fr *FrameReader, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if err := fw.WriteFrame(FrameRequest, uint64(i), reqBody(t, Request{ID: uint64(i), Op: OpPing})); err != nil {
			t.Fatal(err)
		}
		if _, tag, _, err := fr.ReadFrame(); err != nil || tag != uint64(i) {
			t.Fatalf("ping %d: answered tag %d, %v", i, tag, err)
		}
	}
}

// TestFrameServerKeepsHandlersWarm: a connection that sends one request at a
// time is served by the handler that answered its last one, not by a new
// goroutine per frame.
func TestFrameServerKeepsHandlersWarm(t *testing.T) {
	log := newHandlerLog(0)
	_, fw, fr, _ := serveFrames(t, log.handle)
	pingRoundTrips(t, fw, fr, 200)
	if n := log.handlers(); n != 1 {
		t.Fatalf("200 sequential requests ran on %d goroutines, want 1", n)
	}
}

// TestFrameServerHandlersFollowInflightPeak: 16 requests held in Handle
// together take 16 handlers; the 200 sequential ones after them are served
// by those same 16. When the peer closes, Serve returns and every handler
// with it.
func TestFrameServerHandlersFollowInflightPeak(t *testing.T) {
	const peak = 16
	baseline := runtime.NumGoroutine()
	log := newHandlerLog(peak)
	cli, fw, fr, served := serveFrames(t, log.handle)
	for i := 1; i <= peak; i++ { // pipelined: none is answered before all arrive
		if err := fw.WriteFrame(FrameRequest, uint64(i), reqBody(t, Request{ID: uint64(i), Op: OpPing})); err != nil {
			t.Fatal(err)
		}
	}
	for range peak {
		if _, _, _, err := fr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}
	if n := log.handlers(); n != peak {
		t.Fatalf("%d requests in Handle at once ran on %d goroutines", peak, n)
	}
	pingRoundTrips(t, fw, fr, 200)
	if n := log.handlers(); n != peak {
		t.Fatalf("after a peak of %d in flight, sequential requests brought the handlers to %d", peak, n)
	}
	cli.Close()
	<-served
	for attempt := 0; runtime.NumGoroutine() > baseline; attempt++ {
		if attempt == 1000 {
			t.Fatalf("%d goroutines outlived Serve", runtime.NumGoroutine()-baseline)
		}
		time.Sleep(time.Millisecond) // a handler's deferred Done precedes its exit
	}
}

// serveStatAllocs is what serving one stat allocates: four in live (the
// owner-queue task and the stat's result) and the response's Record.
// Formatting its two histogram labels and looking them up cost four more.
const serveStatAllocs = 5

// TestServeStatAllocs: serving one stat through Server.serve finds its per-op
// and per-volume histograms by table row and volume entry; it formats no
// label.
func TestServeStatAllocs(t *testing.T) {
	disk := sharedisk.NewStore(0)
	if err := disk.CreateFileSet("fs00"); err != nil {
		t.Fatal(err)
	}
	cl, err := live.NewCluster(liveTestConfig(), disk, map[int]float64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	srv := NewServer(cl)
	cs := &connState{remote: "test"}
	if resp := srv.serve(cs, Request{Op: OpCreate, FileSet: "fs00", Path: "/a", Record: &sharedisk.Record{Size: 1}}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	stat := Request{Op: OpStat, FileSet: "fs00", Path: "/a"}
	if n := testing.AllocsPerRun(200, func() {
		if resp := srv.serve(cs, stat); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}); n > serveStatAllocs {
		t.Fatalf("serving a stat: %v allocs/op, want at most %d", n, serveStatAllocs)
	}
}
