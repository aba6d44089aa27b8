package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/tenant"
)

// ErrClientPoisoned reports a Client whose connection suffered a
// transport error earlier (deadline, reset, truncated frame). The stream
// may have stopped mid-frame, so the reader's next bytes could be the
// tail of an old response; parsing them as a frame header would
// silently desynchronize the protocol. A poisoned client fails every
// subsequent call fast — the only recovery is a new connection, which a
// client built by NewResilient dials by itself.
var ErrClientPoisoned = errors.New("wire: connection poisoned by earlier transport error")

// errClosed fails a resilient client's ops once Close has run. It is no
// transport error, so no retry loop spins on it.
var errClosed = errors.New("wire: client closed")

// Client speaks the morphserve protocol over one connection, one request
// in flight at a time (the closed-loop model morphload measures). Every op
// takes one path: encode the request into the reused buffer, send the
// frame, read the reply and decode it while mu is held. The retry policy
// is the only thing that differs between clients: one built by Dial or
// NewClient tries each op once, and a transport error poisons it for good;
// one built by NewResilient dials on demand and retries under the
// IsRetryable taxonomy (DESIGN §11). Ops on one client run one at a time,
// a resilient op's retries and backoff included.
type Client struct {
	timeout time.Duration
	retry   *policy // nil: one attempt per op, no redial

	// closeMu guards closed and the replacement of conn, which an op makes
	// holding mu as well: so an op may read conn under mu alone, and Close
	// reads it under closeMu alone, never waiting on mu — that is, on an
	// op in flight or its backoff.
	closeMu sync.Mutex
	closed  bool
	conn    net.Conn // nil while a resilient client has no connection

	mu sync.Mutex
	bw *bufio.Writer
	fw *FrameWriter
	fr *FrameReader
	// req is the reused request-payload scratch: one buffer serves every
	// call, and fw and fr reuse theirs, so a steady-state round trip
	// allocates nothing — a Write costs 0, a Read the one copy it returns
	// (TestClientAllocations).
	req []byte
	// poisoned records the first transport error; once set, the stream's
	// framing can no longer be trusted and every call fails fast.
	poisoned error
}

// Dial connects to a morphserve address. timeout, if nonzero, bounds the
// dial and every subsequent round trip.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, timeout), nil
}

func dial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return conn, nil
}

// NewClient wraps an existing connection (tests use net.Pipe).
func NewClient(conn net.Conn, timeout time.Duration) *Client {
	c := &Client{timeout: timeout}
	c.attach(conn)
	return c
}

// attach makes conn the client's stream, with framing state of its own.
func (c *Client) attach(conn net.Conn) {
	c.conn, c.poisoned = conn, nil
	c.bw = bufio.NewWriter(conn)
	c.fw = NewFrameWriter(c.bw)
	c.fr = NewFrameReader(bufio.NewReader(conn))
}

// Close closes the connection, and the client with it: an op in flight
// fails, and so does every later one. It takes no lock an op holds, so it
// never waits for one, a resilient op's backoff included.
func (c *Client) Close() error {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// poison marks the connection unusable and returns err. Must be called
// with c.mu held. The connection is closed eagerly so a server-side slot
// frees immediately instead of waiting for the peer's idle deadline.
func (c *Client) poison(err error) error {
	c.poisoned = err
	_ = c.conn.Close()
	return err
}

// roundTrip sends one request and decodes the response, surfacing
// StatusIntegrity as *secmem.IntegrityError, StatusBusy as *BusyError,
// and StatusError as *RemoteError.
//
// Any transport failure — deadline, short write, reset, truncated or
// garbled response frame — poisons the client: the stream may have died
// mid-frame, so leftover bytes must never be parsed as the next frame
// header. Response-level errors (non-OK statuses, payload decode
// failures) leave the connection healthy: framing stayed intact.
//
// The returned body aliases the client's reused frame buffer: it is valid
// only while c.mu is held and until the next round trip. Callers decode or
// copy it before unlocking; nothing aliasing it may escape to the user.
func (c *Client) roundTrip(op byte, payload []byte) ([]byte, error) {
	if c.poisoned != nil {
		return nil, fmt.Errorf("%w (cause: %v)", ErrClientPoisoned, c.poisoned)
	}
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return nil, c.poison(fmt.Errorf("wire: set deadline: %w", err))
		}
	}
	if err := c.fw.WriteFrame(op, payload); err != nil {
		if errors.Is(err, ErrOversized) {
			// Local validation failure: nothing touched the wire.
			return nil, err
		}
		return nil, c.poison(err)
	}
	if err := c.bw.Flush(); err != nil {
		return nil, c.poison(fmt.Errorf("wire: flush: %w", err))
	}
	status, body, err := c.fr.ReadFrame()
	if err != nil {
		return nil, c.poison(err)
	}
	if status != StatusOK {
		return nil, DecodeError(status, body)
	}
	return body, nil
}

// do runs op with request payload req under the client's policy and hands
// the OK reply's body to decode (nil when the reply carries nothing); the
// body is valid only during that call. idempotent says whether a resilient
// client may repeat the op after a transport error left its outcome
// unknown (RetryWrites extends that to every op). Must be called with c.mu
// held.
func (c *Client) do(op byte, req []byte, idempotent bool, decode func(body []byte) error) error {
	if c.retry == nil {
		return c.once(op, req, decode)
	}
	return c.retried(op, req, idempotent || c.retry.cfg.RetryWrites, decode)
}

// once is one attempt at an op: a round trip and the reply's decoding.
func (c *Client) once(op byte, req []byte, decode func(body []byte) error) error {
	body, err := c.roundTrip(op, req)
	if err != nil || decode == nil {
		return err
	}
	return decode(body)
}

// call is do for an idempotent op whose reply decodes into a value.
func call[T any](c *Client, op byte, req []byte, decode func(body []byte) (T, error)) (T, error) {
	var v T
	err := c.do(op, req, true, func(body []byte) (err error) {
		v, err = decode(body)
		return err
	})
	return v, err
}

// Read fetches and verifies the line at a line-aligned address. The
// returned line is a fresh copy, safe to retain. Idempotent; an
// IntegrityError is a verdict, never retried into a false alarm.
func (c *Client) Read(addr uint64) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.req = AppendAddr(c.req[:0], addr)
	return call(c, OpRead, c.req, func(body []byte) ([]byte, error) {
		if len(body) != secmem.LineBytes {
			return nil, fmt.Errorf("wire: read returned %d bytes, want %d", len(body), secmem.LineBytes)
		}
		return append([]byte(nil), body...), nil
	})
}

// Write stores a 64-byte line at a line-aligned address. Not idempotent
// as far as the retry policy knows: a transport error leaves its outcome
// unknown, and only RetryWrites repeats it.
func (c *Client) Write(addr uint64, line []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	req, err := AppendWrite(c.req[:0], addr, line)
	c.req = req
	if err != nil {
		return err
	}
	return c.do(OpWrite, c.req, false, nil)
}

// Verify asks the server to re-verify every written line in every shard.
func (c *Client) Verify() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.do(OpVerify, nil, true, nil)
}

// Stats fetches the server's aggregated shard stats.
func (c *Client) Stats() (secmem.Stats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return call(c, OpStats, nil, DecodeStats)
}

// helloRequest encodes the HELLO that binds a stream to tenant id, proving
// possession of its secret with an HMAC token (the secret never crosses
// the wire). It gets a buffer of its own: a redial sends one while c.req
// holds the op being retried.
func helloRequest(id, secret string) ([]byte, error) {
	return AppendHello(nil, id, tenant.HelloToken(secret, id))
}

// Hello binds the connection to a tenant. Multi-tenant servers reject
// every data op until a Hello succeeds; a bad id or token answers
// *RemoteError. A resilient client configured with TenantID sends it after
// every dial by itself.
func (c *Client) Hello(id, secret string) error {
	req, err := helloRequest(id, secret)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.do(OpHello, req, true, nil)
}

// Ping checks the server is alive. The server answers it even while
// shedding load, so Ping succeeding says nothing about capacity.
func (c *Client) Ping() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.do(OpPing, nil, true, nil)
}

// Proof fetches the verifiable-read witness for a line-aligned address.
// The returned proof is fully decoded into fresh allocations, safe to
// retain; verify it with proof.Proof.Verify. Servers without a prover
// answer *RemoteError.
func (c *Client) Proof(addr uint64) (*proof.Proof, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.req = AppendAddr(c.req[:0], addr)
	return call(c, OpProof, c.req, proof.DecodeProof)
}

// Root fetches the transparency log's current position: the authority's
// public key, latest signed head, and newest entry. Fully decoded, safe
// to retain.
func (c *Client) Root() (*proof.RootInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return call(c, OpRoot, nil, proof.DecodeRootInfo)
}

// RootRange fetches transparency-log entries with 0-based indices
// [from, to) plus the consistency proof between the size-from and size-to
// logs. Fully decoded, safe to retain.
func (c *Client) RootRange(from, to uint64) (*proof.RangeResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.req = AppendRootRange(c.req[:0], from, to)
	return call(c, OpRootRange, c.req, proof.DecodeRangeResult)
}

// Tamper asks the server to flip a stored ciphertext bit at an address —
// honored only by servers started with tampering enabled. Not idempotent
// (a double flip restores the bit), so it retries like Write.
func (c *Client) Tamper(addr uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.req = AppendAddr(c.req[:0], addr)
	return c.do(OpTamper, c.req, false, nil)
}

// Replicate performs one replication poll. The response is fully decoded
// into fresh allocations, safe to retain.
func (c *Client) Replicate(req *ReplicateRequest) (*ReplicateResponse, error) {
	p, err := EncodeReplicateRequest(req)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return call(c, OpReplicate, p, DecodeReplicateResponse)
}
