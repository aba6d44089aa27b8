package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/tenant"
)

// Payload codecs for the individual ops. Addresses travel as big-endian
// u64; lines are raw 64-byte cachelines.

// addrBytes is the encoded size of a line address.
const addrBytes = 8

// AppendAddr appends an OpRead / OpTamper payload to dst and returns the
// extended slice: the zero-allocation form for callers that reuse a
// request buffer across calls.
//
//morph:hotpath
func AppendAddr(dst []byte, addr uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, addr)
}

// EncodeAddr encodes an OpRead / OpTamper payload into a fresh slice (the
// one-shot form; hot paths use AppendAddr with a reused buffer).
func EncodeAddr(addr uint64) []byte {
	return AppendAddr(make([]byte, 0, addrBytes), addr)
}

// DecodeAddr decodes an OpRead / OpTamper payload.
//
//morph:hotpath
func DecodeAddr(p []byte) (uint64, error) {
	if len(p) != addrBytes {
		return 0, fmt.Errorf("wire: address payload is %d bytes, want %d", len(p), addrBytes)
	}
	return binary.BigEndian.Uint64(p), nil
}

// AppendWrite appends an OpWrite payload — address followed by the line —
// to dst and returns the extended slice.
//
//morph:hotpath
func AppendWrite(dst []byte, addr uint64, line []byte) ([]byte, error) {
	if len(line) != secmem.LineBytes {
		return dst, fmt.Errorf("wire: line is %d bytes, want %d", len(line), secmem.LineBytes)
	}
	return append(AppendAddr(dst, addr), line...), nil
}

// DecodeWrite decodes an OpWrite payload. The returned line aliases p.
//
//morph:hotpath
func DecodeWrite(p []byte) (uint64, []byte, error) {
	if len(p) != addrBytes+secmem.LineBytes {
		return 0, nil, fmt.Errorf("wire: write payload is %d bytes, want %d", len(p), addrBytes+secmem.LineBytes)
	}
	return binary.BigEndian.Uint64(p), p[addrBytes:], nil
}

// AppendRootRange appends an OpRootRange payload — the 0-based entry
// range [from, to) — to dst and returns the extended slice.
func AppendRootRange(dst []byte, from, to uint64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, from)
	return binary.BigEndian.AppendUint64(dst, to)
}

// DecodeRootRange decodes an OpRootRange payload.
func DecodeRootRange(p []byte) (from, to uint64, err error) {
	if len(p) != 2*addrBytes {
		return 0, 0, fmt.Errorf("wire: root-range payload is %d bytes, want %d", len(p), 2*addrBytes)
	}
	return binary.BigEndian.Uint64(p), binary.BigEndian.Uint64(p[addrBytes:]), nil
}

// AppendHello appends an OpHello payload — | u8 idLen | id | 32-byte
// token | — to dst and returns the extended slice. The token is the
// HMAC proof of possession (tenant.HelloToken); the secret itself never
// crosses the wire.
func AppendHello(dst []byte, id string, token [tenant.TokenLen]byte) ([]byte, error) {
	if id == "" || len(id) > 255 {
		return dst, fmt.Errorf("wire: tenant id length %d must be 1..255", len(id))
	}
	dst = append(dst, byte(len(id)))
	dst = append(dst, id...)
	return append(dst, token[:]...), nil
}

// DecodeHello decodes an OpHello payload. The returned token slice
// aliases p.
func DecodeHello(p []byte) (id string, token []byte, err error) {
	if len(p) < 1 {
		return "", nil, fmt.Errorf("wire: hello payload is empty")
	}
	n := int(p[0])
	if n == 0 || len(p) != 1+n+tenant.TokenLen {
		return "", nil, fmt.Errorf("wire: hello payload is %d bytes, want %d", len(p), 1+n+tenant.TokenLen)
	}
	return string(p[1 : 1+n]), p[1+n:], nil
}

// EncodeStats encodes an OpStats OK payload.
func EncodeStats(s secmem.Stats) ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("wire: encode stats: %w", err)
	}
	return b, nil
}

// DecodeStats decodes an OpStats OK payload.
func DecodeStats(p []byte) (secmem.Stats, error) {
	var s secmem.Stats
	if err := json.Unmarshal(p, &s); err != nil {
		return secmem.Stats{}, fmt.Errorf("wire: decode stats: %w", err)
	}
	return s, nil
}

// EncodeError turns any error into a response (status, payload) pair. An
// *secmem.IntegrityError anywhere in the chain is encoded structurally so
// it survives the trip, a *BusyError becomes StatusBusy, a
// *tenant.QuotaError becomes StatusQuota (tenant and resource encoded
// field-for-field), and everything else collapses to a StatusError
// string.
func EncodeError(err error) (byte, []byte) {
	var ie *secmem.IntegrityError
	if errors.As(err, &ie) {
		p := make([]byte, 16, 16+len(ie.Reason))
		binary.BigEndian.PutUint64(p, uint64(int64(ie.Level)))
		binary.BigEndian.PutUint64(p[8:], ie.Index)
		return StatusIntegrity, append(p, ie.Reason...)
	}
	var be *BusyError
	if errors.As(err, &be) {
		return StatusBusy, []byte(be.Msg)
	}
	var qe *tenant.QuotaError
	if errors.As(err, &qe) {
		if len(qe.Tenant) <= 255 && len(qe.Resource) <= 255 {
			p := make([]byte, 0, 2+len(qe.Tenant)+len(qe.Resource)+len(qe.Msg))
			p = append(p, byte(len(qe.Tenant)))
			p = append(p, qe.Tenant...)
			p = append(p, byte(len(qe.Resource)))
			p = append(p, qe.Resource...)
			return StatusQuota, append(p, qe.Msg...)
		}
	}
	var me *MovedError
	if errors.As(err, &me) {
		p := make([]byte, 8, 8+len(me.Leader))
		binary.BigEndian.PutUint64(p, me.Epoch)
		return StatusMoved, append(p, me.Leader...)
	}
	return StatusError, []byte(err.Error())
}

// DecodeError reconstructs the error a non-OK response carries:
// *secmem.IntegrityError for StatusIntegrity, *RemoteError for StatusError.
func DecodeError(status byte, p []byte) error {
	switch status {
	case StatusIntegrity:
		if len(p) < 16 {
			return fmt.Errorf("wire: integrity payload is %d bytes, want >= 16", len(p))
		}
		return &secmem.IntegrityError{
			Level:  int(int64(binary.BigEndian.Uint64(p))),
			Index:  binary.BigEndian.Uint64(p[8:]),
			Reason: string(p[16:]),
		}
	case StatusError:
		return &RemoteError{Msg: string(p)}
	case StatusBusy:
		return &BusyError{Msg: string(p)}
	case StatusQuota:
		if len(p) < 1 {
			return fmt.Errorf("wire: quota payload is empty")
		}
		tn := int(p[0])
		if len(p) < 1+tn+1 {
			return fmt.Errorf("wire: quota payload is %d bytes, want >= %d", len(p), 1+tn+1)
		}
		rn := int(p[1+tn])
		if len(p) < 1+tn+1+rn {
			return fmt.Errorf("wire: quota payload is %d bytes, want >= %d", len(p), 1+tn+1+rn)
		}
		return &tenant.QuotaError{
			Tenant:   string(p[1 : 1+tn]),
			Resource: string(p[1+tn+1 : 1+tn+1+rn]),
			Msg:      string(p[1+tn+1+rn:]),
		}
	case StatusMoved:
		if len(p) < 8 {
			return fmt.Errorf("wire: moved payload is %d bytes, want >= 8", len(p))
		}
		return &MovedError{
			Epoch:  binary.BigEndian.Uint64(p),
			Leader: string(p[8:]),
		}
	}
	return fmt.Errorf("wire: unknown response status %#x", status)
}
