package wire

import (
	"errors"
	"fmt"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// TestQuotaExceededCoding pins the machine-readable error vocabulary
// tenants script against: a quota rejection stays typed through wrapping
// on the server side and through the Response.Code round trip on the
// client side — never through string matching.
func TestQuotaExceededCoding(t *testing.T) {
	base := errors.New(`fleet: volume "acme" at its file-set quota (4 of 4)`)
	err := QuotaExceeded(base)
	if !IsQuotaExceeded(err) {
		t.Fatal("QuotaExceeded error not recognized by IsQuotaExceeded")
	}
	if ErrorCode(err) != CodeQuotaExceeded {
		t.Fatalf("ErrorCode = %q, want %q", ErrorCode(err), CodeQuotaExceeded)
	}
	// Wrapping (as routers and retries do) must not strip the code.
	wrapped := fmt.Errorf("route attempt 2: %w", err)
	if !IsQuotaExceeded(wrapped) {
		t.Fatal("wrapping stripped the quota-exceeded code")
	}
	if err.Error() != base.Error() {
		t.Fatalf("coded error changed the message: %q", err.Error())
	}
	// Ordinary errors carry no code.
	if IsQuotaExceeded(base) || ErrorCode(base) != "" {
		t.Fatal("uncoded error reported a code")
	}
}

// TestQuotaExceededSurvivesResponseRoundTrip: the server stamps
// Response.Code from the error chain; ResponseError rebuilds the typed
// error on the far side, exactly as both the wire and sdk clients decode
// responses.
func TestQuotaExceededSurvivesResponseRoundTrip(t *testing.T) {
	server := QuotaExceeded(errors.New(`fleet: volume "acme" over its op-rate quota (50 ops/s per daemon)`))
	resp := Response{Err: server.Error(), Code: ErrorCode(server)}
	client := ResponseError(resp)
	if client == nil {
		t.Fatal("ResponseError dropped the error")
	}
	if !IsQuotaExceeded(client) {
		t.Fatalf("decoded error lost its code: %v", client)
	}
	if client.Error() != server.Error() {
		t.Fatalf("message drifted across the wire: %q vs %q", client.Error(), server.Error())
	}
	// A response without a code decodes to an untyped error.
	if IsQuotaExceeded(ResponseError(Response{Err: "boom"})) {
		t.Fatal("uncoded response decoded as quota-exceeded")
	}
}

// TestFailRoundTripsEveryTypedError: what Fail stamps on the answering
// side, ResponseError rebuilds on the calling side — wrong-owner with its
// epoch, arriving, and a relayed transport failure as transient — with no
// reading of the message anywhere, so a hop that relays the response (a
// gateway) hands its own caller the same typed error.
func TestFailRoundTripsEveryTypedError(t *testing.T) {
	relay := func(err error) error { return ResponseError(Fail(Response{}, err)) }

	got := relay(relay(fmt.Errorf("route budget spent: %w", &WrongOwnerError{Epoch: 41})))
	if epoch, ok := IsWrongOwner(got); !ok || epoch != 41 {
		t.Fatalf("wrong-owner after two hops = %v (epoch %d, ok %v)", got, epoch, ok)
	}
	if got := relay(relay(ErrArriving)); !IsArriving(got) {
		t.Fatalf("arriving after two hops = %v", got)
	}
	for _, transport := range []error{
		ErrConnClosed,
		fmt.Errorf("%w: %w", ErrSendFailed, errors.New("broken pipe")),
		fmt.Errorf("wire: stat call %w after 1s", ErrTimedOut),
	} {
		if got := relay(relay(transport)); !TransientError(got) || ErrorCode(got) != CodeTransient {
			t.Fatalf("%v after two hops = %v (code %q)", transport, got, ErrorCode(got))
		}
	}
	// A refused dial is a transport failure; a daemon's disk error is not,
	// although syscall.Errno satisfies net.Error too.
	_, dialErr := net.DialTimeout("tcp", "127.0.0.1:1", time.Second)
	if dialErr == nil || !TransientError(relay(dialErr)) {
		t.Fatalf("refused dial %v not relayed as transient", dialErr)
	}
	disk := &os.PathError{Op: "write", Path: "wal-000001.log", Err: syscall.ENOSPC}
	if got := relay(disk); TransientError(got) || ErrorCode(got) != "" {
		t.Fatalf("disk error relayed as %q (transient %v)", ErrorCode(got), TransientError(got))
	}
	// A message that merely mentions a transport failure is not one.
	if TransientError(ResponseError(Response{Err: "disk said: connection closed"})) {
		t.Fatal("uncoded response text was classified transient")
	}
}
