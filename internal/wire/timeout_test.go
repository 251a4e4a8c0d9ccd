package wire

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCallTimesOutOnStalledServer is the regression test for per-call
// deadlines: a listener that accepts and then never responds used to block
// every caller forever; now the call fails after Client.SetTimeout.
func TestCallTimesOutOnStalledServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn // hold the conn open, read nothing, answer nothing
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(50 * time.Millisecond)

	start := time.Now()
	_, err = c.Stat("vol00", "/a")
	if err == nil {
		t.Fatal("call against a stalled server returned nil")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timeout took %v, want ~50ms", d)
	}
	// The abandoned call must not leak its pending entry.
	c.mu.Lock()
	n := len(c.pending)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d pending entries leaked after timeout", n)
	}
	// The client is still usable for its next (also timed-out) call.
	if _, err := c.Stat("vol00", "/b"); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("second call err = %v", err)
	}
	select {
	case conn := <-accepted:
		conn.Close()
	default:
	}
}

// TestCloseFailsPendingCalls: closing the connection fails every pending
// call with ErrConnClosed instead of leaving it hung, and later calls fail
// the same way.
func TestCloseFailsPendingCalls(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := Dial(ln.Addr().String()) // accepted by the kernel, never served
	if err != nil {
		t.Fatal(err)
	}
	c.SetTimeout(-1)
	done := make(chan error, 1)
	go func() { done <- c.Ping() }()
	for c.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConnClosed) && !errors.Is(err, ErrSendFailed) {
			t.Fatalf("pending call err = %v, want a typed connection failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call still hung after Close")
	}
	if err := c.Ping(); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("call after Close = %v, want ErrConnClosed", err)
	}
}

// TestNegativeTimeoutDisablesDeadline checks the opt-out: a negative
// timeout waits indefinitely (here: until the response arrives late).
func TestNegativeTimeoutDisablesDeadline(t *testing.T) {
	c, _ := startServer(t, 1)
	c.SetTimeout(-1)
	if err := c.CreateFileSet("volx"); err != nil {
		t.Fatal(err)
	}
}

func TestBackoffGrowsJittersAndResets(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, time.Second)
	prevMax := time.Duration(0)
	for i := 0; i < 6; i++ {
		d := b.Next()
		step := 100 * time.Millisecond << i
		if step > time.Second {
			step = time.Second
		}
		lo, hi := step-step/4, step+step/4
		if d < lo || d > hi {
			t.Fatalf("step %d: delay %v outside [%v, %v]", i, d, lo, hi)
		}
		if d > prevMax {
			prevMax = d
		}
	}
	b.Reset()
	if d := b.Next(); d > 125*time.Millisecond {
		t.Fatalf("after Reset, delay %v did not return to base", d)
	}
	// Zero-value Backoff is usable with defaults.
	var zb Backoff
	if d := zb.Next(); d <= 0 {
		t.Fatalf("zero-value backoff returned %v", d)
	}
}

// TestMalformedResponseFailsItsCallAtOnce: a response frame whose header is
// intact names the call it answers even when its body does not decode, so
// that call fails then and there — it used to be dropped, leaving the
// caller to wait out its whole deadline — and the connection, whose framing
// was never in doubt, keeps serving.
func TestMalformedResponseFailsItsCallAtOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr, fw := NewFrameReader(conn, MaxFramePayload), NewFrameWriter(conn, MaxFramePayload)
		// First request: garbage under the right tag. Second: a real reply.
		_, tag, _, err := fr.ReadFrame()
		if err != nil || fw.WriteFrame(FrameResponse, tag, []byte{0xff, 0xff, 0xff}) != nil {
			return
		}
		if _, tag, _, err = fr.ReadFrame(); err != nil {
			return
		}
		ok, _ := AppendResponse(nil, &Response{})
		_ = fw.WriteFrame(FrameResponse, tag, ok)
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(30 * time.Second) // far longer than the test may take
	start := time.Now()
	err = c.Ping()
	if err == nil || errors.Is(err, ErrTimedOut) || !strings.Contains(err.Error(), "malformed response") {
		t.Fatalf("ping answered with garbage = %v, want a malformed-response error", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("the call failed after %v: it waited on its deadline, not on the reply", d)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after a malformed response: %v", err)
	}
}

// TestAuthorityCallOutwaitsTheConnectionDeadline: a ClassAuthority call
// waits at least authorityCallTimeout under a shorter connection deadline
// (an assign runs handoffs before it answers), while any other call on the
// same connection still times out at the connection's own deadline.
func TestAuthorityCallOutwaitsTheConnectionDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	arrived, release := make(chan struct{}, 2), make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fs := &FrameServer{Handle: func(req Request) Response {
			arrived <- struct{}{}
			<-release // every call is held until the test lets go
			return Response{Epoch: 7}
		}}
		fs.Serve(conn, MaxFramePayload)
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.SetTimeout(50 * time.Millisecond)
	var once sync.Once
	letGo := func() { once.Do(func() { close(release) }) }
	defer func() {
		letGo()
		c.Close()
		<-served
	}()

	assigned := make(chan error, 1)
	go func() {
		_, err := c.Assign("vol00", 1)
		assigned <- err
	}()
	<-arrived
	// Sent after the assign, so its deadline passes after the assign's
	// would under the connection's own.
	if _, err := c.Stat("vol00", "/a"); !errors.Is(err, ErrTimedOut) {
		t.Fatalf("stat under a 50ms deadline = %v, want a timeout", err)
	}
	letGo()
	if err := <-assigned; err != nil {
		t.Fatalf("assign under a 50ms connection deadline = %v, want its answer", err)
	}
}
