// Package wire is morphserve's length-prefixed binary protocol. A frame is
//
//	| u32 big-endian body length | body |
//
// where a request body is | opcode byte | payload | and a response body is
// | status byte | payload |. Length-prefixing keeps the stream
// self-delimiting, so a malformed payload never desynchronizes the
// connection, and a hard cap on the body length bounds what a hostile peer
// can make the server allocate.
//
// Errors are typed end to end: a secmem.IntegrityError raised inside a
// shard is encoded field-for-field (level, index, reason) and decoded back
// into a *secmem.IntegrityError on the client, so callers' errors.As checks
// work identically in-process and across the wire.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Request opcodes.
const (
	// OpRead reads one line: payload is a u64 address; OK response
	// carries the 64-byte plaintext.
	OpRead byte = 0x01
	// OpWrite writes one line: payload is a u64 address + 64 bytes.
	OpWrite byte = 0x02
	// OpVerify re-verifies every written line in every shard.
	OpVerify byte = 0x03
	// OpStats returns the aggregated shard stats as JSON.
	OpStats byte = 0x04
	// 0x05 was OpSnapshot (retired; never reuse it).
	// OpTamper flips a stored ciphertext bit at a u64 address (adversary
	// interface; servers only honor it when started with tampering
	// enabled). Used to demonstrate fail-closed detection end to end.
	OpTamper byte = 0x06
	// OpCheckpoint forces the server to cut a durable checkpoint: an
	// atomic on-disk snapshot that truncates the write-ahead log. Only
	// servers started with a data directory honor it; others answer
	// StatusError. The OK response carries the new u64 snapshot sequence
	// number.
	OpCheckpoint byte = 0x07
	// OpPing is the health check: empty payload, empty OK response. The
	// server answers it without taking an admission slot, so a loaded
	// (shedding) server still proves it is alive — liveness and capacity
	// are separate questions.
	OpPing byte = 0x08
	// 0x09 was OpObs (retired; never reuse it).
	// OpProof is the verifiable read: payload is a u64 address; the OK
	// response is an encoded proof.Proof — the ciphertext, its MAC, the
	// counter line at every tree level on its path, the shard roots, and
	// the authority's attestation — which proof.Verify recomputes with
	// zero server trust. Servers without a prover answer StatusError.
	OpProof byte = 0x0A
	// OpRoot returns the transparency log's current position: the
	// authority's public key, its latest signed head, and the newest epoch
	// entry (an encoded proof.RootInfo).
	OpRoot byte = 0x0B
	// OpRootRange returns transparency-log entries with 0-based indices
	// [from, to) plus the consistency proof between the size-from and
	// size-to logs (an encoded proof.RangeResult). Payload is two u64s;
	// a range outside the log answers StatusError.
	OpRootRange byte = 0x0C
	// OpHello binds the connection to a tenant: payload is the tenant id
	// (length-prefixed) plus an HMAC proof-of-possession token
	// (tenant.HelloToken). On multi-tenant servers every data op before a
	// successful HELLO — and any HELLO with a bad token — answers
	// StatusError; single-tenant servers reject HELLO the same way. The
	// OK response is empty. PING stays tenant-free on both.
	OpHello byte = 0x0D
	// OpReplicate is the cluster replication long-poll: a follower sends
	// its fencing epoch and per-shard durable watermark vector (an encoded
	// ReplicateRequest) and the primary answers with sealed WAL record
	// batches past those watermarks, or a snapshot bootstrap when the
	// follower's cursor predates the retained log (an encoded
	// ReplicateResponse). Served without an admission slot: replication
	// must not be shed by client load. Non-cluster servers answer
	// StatusError.
	OpReplicate byte = 0x0E
	// OpRoute returns the answering node's view of the cluster as JSON
	// (RouteInfo): role, fencing epoch, leader address, known peers and the
	// node's own durable watermarks. Clients use it to find the primary; the
	// control plane uses it to pick a promotion candidate. Served without an
	// admission slot.
	OpRoute byte = 0x0F
	// OpPromote asks a replica to become primary at a new fencing epoch:
	// payload is the epoch plus the minimum per-shard LSN vector the
	// candidate must be caught up to (element-wise max across surviving
	// replicas). The replica refuses while its lease on the current primary
	// is unexpired, catches its WAL tail up from donor peers if needed, and
	// answers with its post-promotion RouteInfo. Served without an
	// admission slot.
	OpPromote byte = 0x10
	// OpFollow redirects a node to follow a (new) leader at a given epoch:
	// payload is the epoch and leader address. A primary receiving a higher
	// epoch steps down (fencing). Served without an admission slot.
	OpFollow byte = 0x11
	// 0x12 was OpMigrate (retired; never reuse it).
)

// opNames maps opcodes to the names used in per-op metric keys
// (server.op.<name>.latency) and human-readable output.
var opNames = map[byte]string{
	OpRead:       "read",
	OpWrite:      "write",
	OpVerify:     "verify",
	OpStats:      "stats",
	OpTamper:     "tamper",
	OpCheckpoint: "checkpoint",
	OpPing:       "ping",
	OpProof:      "proof",
	OpRoot:       "root",
	OpRootRange:  "root_range",
	OpHello:      "hello",
	OpReplicate:  "replicate",
	OpRoute:      "route",
	OpPromote:    "promote",
	OpFollow:     "follow",
}

// OpName returns the lowercase name of an opcode, or "op_%02x" for
// opcodes this build does not know.
func OpName(op byte) string {
	if name, ok := opNames[op]; ok {
		return name
	}
	return fmt.Sprintf("op_%02x", op)
}

// Response status bytes.
const (
	// StatusOK carries the op-specific result payload.
	StatusOK byte = 0x00
	// StatusIntegrity carries an encoded secmem.IntegrityError: the
	// request touched tampered memory and failed closed.
	StatusIntegrity byte = 0x01
	// StatusError carries a plain error string (bad request, limits,
	// unknown opcode).
	StatusError byte = 0x02
	// StatusBusy carries a plain string and means the server shed this
	// request before executing any of it: admission control was full, or
	// the connection cap was reached. The promise is load-shedding, not
	// failure — the request had no effect, so retrying it after backoff
	// is always safe, writes included.
	StatusBusy byte = 0x03
	// StatusQuota carries an encoded tenant.QuotaError: the bound
	// tenant's quota (rate, inflight cap, or fair-share capacity wait)
	// shed this request before executing any of it. Same
	// shed-before-execution promise as StatusBusy, so retrying after
	// backoff is always safe — but the tenant and exhausted resource
	// survive the trip for client-side accounting.
	StatusQuota byte = 0x04
	// StatusMoved carries an encoded MovedError: the answering node is not
	// the primary (replica, fenced, or deposed), so the data op was refused
	// before executing any of it. The payload names the fencing epoch and,
	// when known, the leader address so the client can re-route. Same
	// refused-before-execution promise as StatusBusy: retrying (against the
	// right node) is always safe, writes included.
	StatusMoved byte = 0x05
)

// MaxBody caps a frame's body length. A replica's snapshot bootstrap of a
// large memory is the biggest legitimate frame; anything over this is
// treated as a hostile or corrupt length prefix before any allocation
// happens, and anything under it is allocated only as its bytes arrive
// (FrameReader.ReadFrame).
const MaxBody = 64 << 20

// lenBytes is the size of the frame length prefix.
const lenBytes = 4

// Typed framing errors, matchable with errors.Is.
var (
	// ErrOversized reports a length prefix exceeding MaxBody.
	ErrOversized = errors.New("wire: frame exceeds size limit")
	// ErrTruncated reports a connection that died mid-frame.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrEmptyFrame reports a zero-length body (no opcode/status byte).
	ErrEmptyFrame = errors.New("wire: empty frame body")
	// ErrMalformed reports an OpReplicate payload whose lengths or flags do
	// not account for its bytes exactly.
	ErrMalformed = errors.New("wire: malformed payload")
)

// RemoteError is a non-integrity failure reported by the peer
// (StatusError): bad request, server limits, unknown opcode.
type RemoteError struct {
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "wire: remote error: " + e.Msg }

// scratchKeep is the largest scratch buffer a FrameWriter or FrameReader holds
// on to between frames. Requests and line responses are under a hundred
// bytes; the one large frame of a connection's life (a replica's snapshot
// bootstrap) must not pin its megabytes until the connection closes.
const scratchKeep = 64 << 10

// growFloor is the least a FrameReader's body buffer grows to when the frame
// is at least that long: what the bufio.Reader under it may already hold.
const growFloor = 4 << 10

// FrameWriter frames messages onto one stream, reusing a single scratch
// buffer across frames so the steady-state write path allocates nothing
// after warm-up (ROADMAP item 1's B/op goal for the wire layer). A scratch
// that a frame grew past scratchKeep is dropped once the frame is written.
// Not safe for concurrent use; callers serialize per connection.
type FrameWriter struct {
	w   io.Writer
	buf []byte
}

// NewFrameWriter returns a FrameWriter over w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w}
}

// WriteFrame writes one frame whose body is the tag byte (opcode or
// status) followed by payload. The frame is assembled in the reused
// scratch buffer and written with a single Write, so a framed message is
// never split across two writes to the underlying stream.
//
//morph:hotpath
func (fw *FrameWriter) WriteFrame(tag byte, payload []byte) error {
	if len(payload)+1 > MaxBody {
		return fmt.Errorf("%w: body %d > %d", ErrOversized, len(payload)+1, MaxBody)
	}
	fw.buf = append(fw.buf[:0], 0, 0, 0, 0, tag)
	binary.BigEndian.PutUint32(fw.buf, uint32(len(payload)+1))
	fw.buf = append(fw.buf, payload...)
	_, err := fw.w.Write(fw.buf)
	if cap(fw.buf) > scratchKeep {
		fw.buf = nil
	}
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// FrameReader reads frames from one stream, reusing a single body buffer
// (and the length prefix's four bytes) across frames. The payload returned
// by ReadFrame aliases that buffer and is valid only until the next
// ReadFrame call; callers that retain it must copy. A buffer that a frame
// grew past scratchKeep is dropped at that next call. Not safe for
// concurrent use.
type FrameReader struct {
	r io.Reader
	// hdr lives here, not in ReadFrame: a local handed to an io.Reader
	// escapes, and four bytes a frame is still a heap that has to be
	// collected.
	hdr [lenBytes]byte
	buf []byte
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// ReadFrame reads one frame and returns its tag byte and payload. A clean
// close at a frame boundary returns io.EOF; a close or error mid-frame
// returns ErrTruncated; a length prefix over MaxBody returns ErrOversized.
// The length prefix is a claim nobody has authenticated, so it never sizes
// an allocation on its own: a body the buffer cannot hold yet is read in
// steps, the buffer doubling only as bytes arrive, so what a peer makes the
// reader allocate is at most growFloor or twice what it has actually sent.
// The payload aliases the reader's scratch buffer; see FrameReader.
//
//morph:hotpath
func (fr *FrameReader) ReadFrame() (tag byte, payload []byte, err error) {
	if cap(fr.buf) > scratchKeep {
		fr.buf = nil
	}
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: reading length: %v", ErrTruncated, err)
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[:]))
	if n == 0 {
		return 0, nil, ErrEmptyFrame
	}
	if n > MaxBody {
		return 0, nil, fmt.Errorf("%w: body %d > %d", ErrOversized, n, MaxBody)
	}
	body := fr.buf[:0]
	for len(body) < n {
		if len(body) == cap(body) {
			grown := make([]byte, len(body), min(n, max(2*len(body), growFloor))) //morphlint:allow hotalloc -- a frame longer than any before it grows the scratch
			copy(grown, body)
			body = grown
		}
		end := min(n, cap(body))
		if _, err := io.ReadFull(fr.r, body[len(body):end]); err != nil {
			return 0, nil, fmt.Errorf("%w: reading %d-byte body: %v", ErrTruncated, n, err)
		}
		body = body[:end]
	}
	fr.buf = body
	return body[0], body[1:], nil
}

// WriteFrame writes one frame to w: the one-shot form for cold paths
// (connection rejects, tests). Hot paths hold a FrameWriter instead.
func WriteFrame(w io.Writer, tag byte, payload []byte) error {
	fw := FrameWriter{w: w}
	return fw.WriteFrame(tag, payload)
}

// ReadFrame reads one frame from r: the one-shot form for cold paths. The
// returned payload is freshly allocated and safe to retain.
func ReadFrame(r io.Reader) (tag byte, payload []byte, err error) {
	fr := FrameReader{r: r}
	return fr.ReadFrame()
}
