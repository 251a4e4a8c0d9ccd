package wire

import (
	"errors"
	"io"
	"net"
)

// Typed sentinels for the transport-level failures the fleet router and
// sdk pool key their retry discipline on.
var (
	// ErrConnClosed fails calls on a Client whose connection died, and is
	// what the sdk pool's no-connection and pool-closed errors wrap.
	ErrConnClosed = errors.New("wire: connection closed")
	// ErrSendFailed wraps a write that failed mid-request; the message
	// composes as "wire: send: <cause>".
	ErrSendFailed = errors.New("wire: send")
	// ErrTimedOut wraps a call that outlived its deadline; the message
	// composes as "wire: <op> call timed out after <d>".
	ErrTimedOut = errors.New("timed out")
)

// TransientError reports connection-level failures worth a
// reconnect+retry, as opposed to application errors the caller must see:
// the sentinels above, the io and net failures a dial or a read can
// return, and — for a failure some hop hit downstream and relayed in a
// response — CodeTransient, which ErrorCode stamps on exactly these
// errors before they cross the wire. The net check is *net.OpError, not
// the net.Error interface: a bare syscall.Errno satisfies the interface,
// and a daemon's disk error must not be relayed as "reconnect and retry".
func TransientError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrConnClosed) || errors.Is(err, ErrSendFailed) || errors.Is(err, ErrTimedOut) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		return true
	}
	var ce *CodedError
	return errors.As(err, &ce) && ce.Code == CodeTransient
}
