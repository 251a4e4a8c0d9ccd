package wire

import (
	"errors"
	"fmt"
)

// This file is the wire surface of fleet mode (internal/fleet): the error
// vocabulary of the wrong-owner protocol and the hook a fleet member uses
// to fence file-set operations on its daemon.

// WrongOwnerError rejects an operation on a file set this daemon does not
// own under the current cluster map. Epoch tells the client which epoch it
// must at least fetch before the retry can possibly land. It crosses the
// wire as CodeWrongOwner plus Response.Epoch, and ResponseError rebuilds it.
type WrongOwnerError struct {
	Epoch uint64
}

func (e *WrongOwnerError) Error() string {
	return fmt.Sprintf("wire: wrong owner (epoch %d): refetch the cluster map", e.Epoch)
}

// IsWrongOwner reports whether err is a wrong-owner rejection (locally
// typed or rebuilt from the wire) and returns the rejecting daemon's
// epoch.
func IsWrongOwner(err error) (epoch uint64, ok bool) {
	var woe *WrongOwnerError
	if errors.As(err, &woe) {
		return woe.Epoch, true
	}
	return 0, false
}

// ErrArriving rejects an operation on a file set that is assigned to this
// daemon but whose adoption has not completed. Unlike wrong-owner, the map
// is not stale — the client just retries after a short backoff. It is a
// *CodedError so the dispatch layer stamps Response.Code = CodeArriving
// and clients rebuild the decision without reading the message.
var ErrArriving error = &CodedError{
	Code: CodeArriving,
	Err:  errors.New("wire: file set arriving: adoption in progress, retry"),
}

// Machine-readable codes for the errors client control flow keys on. They
// ride Response.Code so the decision survives any rewording of the
// human-readable message; no client reads Response.Err to branch.
const (
	// CodeJoinFirst answers a heartbeat from a daemon the authority does
	// not know: the member must re-join before its lease can renew.
	CodeJoinFirst = "join-first"
	// CodeDialRecipient reports a handoff donor that could not reach its
	// recipient at all — the rebalance circuit breaker attributes this to
	// the recipient, not the donor.
	CodeDialRecipient = "dial-recipient"
	// CodeQuotaExceeded rejects an operation that would push a volume past
	// one of its tenant quotas (file-set count at the authority, op rate at
	// the owning daemon's gate). Clients back off or surface it; they must
	// NOT retry-loop, the quota will not clear on its own.
	CodeQuotaExceeded = "quota-exceeded"
	// CodeArriving marks an arriving rejection (ErrArriving): the file
	// set is assigned here but adoption has not completed. Clients retry
	// after a short backoff without refetching the map.
	CodeArriving = "arriving"
	// CodeUnplaced marks an operation on a file set the cluster map
	// assigns to no daemon. The router retries only when its own map
	// disagrees (the daemon's map is behind); otherwise the caller must
	// assign the file set first.
	CodeUnplaced = "unplaced"
	// CodeWrongOwner marks a *WrongOwnerError; the rejecting daemon's
	// epoch rides next to it in Response.Epoch.
	CodeWrongOwner = "wrong-owner"
	// CodeTransient marks a transport failure (TransientError) that a hop
	// hit downstream and relayed in its response: the client may
	// reconnect and retry, exactly as if its own connection had failed.
	CodeTransient = "transient"
)

// QuotaExceeded wraps err with CodeQuotaExceeded.
func QuotaExceeded(err error) error { return &CodedError{Code: CodeQuotaExceeded, Err: err} }

// IsQuotaExceeded reports whether err is a quota rejection, locally typed
// or rebuilt from Response.Code.
func IsQuotaExceeded(err error) bool { return ErrorCode(err) == CodeQuotaExceeded }

// CodedError is an error carrying one of the codes above. Server handlers
// return it so the dispatch layer can stamp Response.Code; clients get it
// rebuilt by ResponseError and branch via ErrorCode.
type CodedError struct {
	Code string
	Err  error
}

func (e *CodedError) Error() string { return e.Err.Error() }
func (e *CodedError) Unwrap() error { return e.Err }

// ErrorCode classifies an error for Response.Code: a *CodedError's own
// code, CodeWrongOwner for a wrong-owner rejection, CodeTransient for a
// transport failure, empty for an error no client branches on. Every
// server-side dispatch stamps its failures with it, so an error keeps its
// typed identity across any number of hops.
func ErrorCode(err error) string {
	var ce *CodedError
	if errors.As(err, &ce) {
		return ce.Code
	}
	if _, ok := IsWrongOwner(err); ok {
		return CodeWrongOwner
	}
	if TransientError(err) {
		return CodeTransient
	}
	return ""
}

// Fail returns resp answering err: the message, its ErrorCode, and — for
// a wrong-owner rejection — the rejecting daemon's epoch.
func Fail(resp Response, err error) Response {
	resp.Err = err.Error()
	resp.Code = ErrorCode(err)
	if epoch, ok := IsWrongOwner(err); ok {
		resp.Epoch = epoch
	}
	return resp
}

// IsArriving reports whether err is an arriving rejection, locally typed
// or rebuilt from Response.Code by ResponseError.
func IsArriving(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrArriving) || ErrorCode(err) == CodeArriving
}

// Unplaced wraps err with CodeUnplaced.
func Unplaced(err error) error { return &CodedError{Code: CodeUnplaced, Err: err} }

// IsUnplaced reports whether err is an unplaced rejection, locally typed
// or rebuilt from Response.Code.
func IsUnplaced(err error) bool { return ErrorCode(err) == CodeUnplaced }

// FleetHandler is what the wire server needs from a fleet member
// (internal/fleet.Member implements it). It lives here as an interface so
// wire does not import fleet (fleet imports wire for the client).
type FleetHandler interface {
	// Gate admits or rejects one file-set-addressed operation under the
	// current cluster map. On nil error the operation may proceed and the
	// caller MUST call release() when it completes — the member counts
	// in-flight operations so a handoff can drain them before the donor
	// flushes. Rejections are *WrongOwnerError (not ours under this map),
	// ErrArriving (ours, adoption pending), or a plain error (unplaced).
	Gate(op Op, fileSet string) (release func(), err error)
	// Fleet serves every op whose Class.Fleet() is true: the cluster-map
	// reads, the member-to-member ops and the authority-only ops.
	Fleet(req Request) Response
}
