package wire

import (
	"errors"
	"fmt"
	"io"
	"net"

	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/tenant"
)

// This file is the client-side error taxonomy: which failures mean "the
// request definitely did not happen" (BusyError), which mean "the
// transport died and the outcome is unknown" (poisoned / truncated /
// net errors), and which are verdicts that must never be retried
// (IntegrityError, RemoteError). NewResilient's retry policy is built
// entirely on this classification.

// BusyError is a StatusBusy response: the server shed the request under
// overload before executing any of it. Always safe to retry after
// backoff, writes included.
type BusyError struct {
	Msg string
}

// Error implements error.
func (e *BusyError) Error() string { return "wire: server busy: " + e.Msg }

// MovedError is a StatusMoved response: the node that answered is not the
// cluster primary, so the data op was refused before executing any of it.
// Leader, when non-empty, is the advertised primary address; Epoch is the
// responder's fencing epoch (clients keep the route with the highest epoch
// when nodes disagree). Always safe to retry — against the leader.
type MovedError struct {
	Epoch  uint64
	Leader string
}

// Error implements error.
func (e *MovedError) Error() string {
	if e.Leader == "" {
		return fmt.Sprintf("wire: not primary (epoch %d, leader unknown)", e.Epoch)
	}
	return fmt.Sprintf("wire: not primary (epoch %d, leader %s)", e.Epoch, e.Leader)
}

// IsMoved reports whether err is a not-primary redirect; the request had
// no effect and should be retried against the advertised leader.
func IsMoved(err error) bool {
	var me *MovedError
	return errors.As(err, &me)
}

// IsRetryable reports whether err is worth retrying at all. Three tiers:
//
//   - *BusyError and *tenant.QuotaError: retryable for every op — the
//     server promises the shed request had no effect (both are
//     shed-before-execution verdicts; quota sheds just carry the tenant
//     and exhausted resource for client-side accounting).
//   - Transport-class errors (poisoned client, truncated frame, closed
//     or reset connection, deadline): retryable, but the outcome of an
//     in-flight request is unknown, so non-idempotent ops must only be
//     retried when the caller opted in (ResilientConfig.RetryWrites).
//   - Everything else — integrity violations, remote verdicts
//     (*RemoteError), codec errors — is a fact about the request or the
//     memory, not the network. Retrying cannot change it and retrying an
//     IntegrityError would convert a tamper detection into traffic.
func IsRetryable(err error) bool {
	var ie *secmem.IntegrityError
	if errors.As(err, &ie) {
		return false
	}
	var be *BusyError
	if errors.As(err, &be) {
		return true
	}
	var qe *tenant.QuotaError
	if errors.As(err, &qe) {
		return true
	}
	if IsMoved(err) {
		return true
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	return IsTransport(err)
}

// IsShed reports whether err is a shed-before-execution verdict (busy or
// quota): the request had no effect and is safe to retry after backoff.
func IsShed(err error) bool {
	var be *BusyError
	if errors.As(err, &be) {
		return true
	}
	var qe *tenant.QuotaError
	return errors.As(err, &qe)
}

// IsTransport reports whether err means the connection is no longer
// trustworthy (so the op's outcome is unknown and the connection must be
// replaced before any retry).
func IsTransport(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrClientPoisoned) || errors.Is(err, ErrTruncated) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}
