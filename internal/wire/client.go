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
// subsequent call fast — the only recovery is a new connection
// (ResilientClient does this automatically).
var ErrClientPoisoned = errors.New("wire: connection poisoned by earlier transport error")

// Client speaks the morphserve protocol over one connection, one request
// in flight at a time (the closed-loop model morphload measures).
type Client struct {
	conn    net.Conn
	timeout time.Duration

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
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return NewClient(conn, timeout), nil
}

// NewClient wraps an existing connection (tests use net.Pipe).
func NewClient(conn net.Conn, timeout time.Duration) *Client {
	bw := bufio.NewWriter(conn)
	return &Client{
		conn:    conn,
		timeout: timeout,
		bw:      bw,
		fw:      NewFrameWriter(bw),
		fr:      NewFrameReader(bufio.NewReader(conn)),
	}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

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

// Read fetches and verifies the line at a line-aligned address. The
// returned line is a fresh copy, safe to retain.
func (c *Client) Read(addr uint64) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.req = AppendAddr(c.req[:0], addr)
	body, err := c.roundTrip(OpRead, c.req)
	if err != nil {
		return nil, err
	}
	if len(body) != secmem.LineBytes {
		return nil, fmt.Errorf("wire: read returned %d bytes, want %d", len(body), secmem.LineBytes)
	}
	return append([]byte(nil), body...), nil
}

// Write stores a 64-byte line at a line-aligned address.
func (c *Client) Write(addr uint64, line []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	req, err := AppendWrite(c.req[:0], addr, line)
	c.req = req
	if err != nil {
		return err
	}
	_, err = c.roundTrip(OpWrite, c.req)
	return err
}

// Verify asks the server to re-verify every written line in every shard.
func (c *Client) Verify() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.roundTrip(OpVerify, nil)
	return err
}

// Stats fetches the server's aggregated shard stats.
func (c *Client) Stats() (secmem.Stats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, err := c.roundTrip(OpStats, nil)
	if err != nil {
		return secmem.Stats{}, err
	}
	return DecodeStats(body)
}

// Checkpoint forces the server to cut a durable checkpoint (atomic
// snapshot + WAL truncation) and returns the new snapshot sequence
// number. Servers running without a data directory answer *RemoteError.
func (c *Client) Checkpoint() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, err := c.roundTrip(OpCheckpoint, nil)
	if err != nil {
		return 0, err
	}
	seq, err := DecodeAddr(body)
	if err != nil {
		return 0, fmt.Errorf("wire: checkpoint response: %w", err)
	}
	return seq, nil
}

// Hello binds the connection to a tenant, proving possession of the
// tenant's secret with an HMAC token (the secret never crosses the wire).
// Multi-tenant servers reject every data op until a Hello succeeds; a bad
// id or token answers *RemoteError.
func (c *Client) Hello(id, secret string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	token := tenant.HelloToken(secret, id)
	req, err := AppendHello(c.req[:0], id, token)
	c.req = req
	if err != nil {
		return err
	}
	_, err = c.roundTrip(OpHello, c.req)
	return err
}

// Ping checks the server is alive. The server answers it even while
// shedding load, so Ping succeeding says nothing about capacity.
func (c *Client) Ping() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.roundTrip(OpPing, nil)
	return err
}

// Proof fetches the verifiable-read witness for a line-aligned address.
// The returned proof is fully decoded into fresh allocations, safe to
// retain; verify it with proof.Proof.Verify. Servers without a prover
// answer *RemoteError.
func (c *Client) Proof(addr uint64) (*proof.Proof, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.req = AppendAddr(c.req[:0], addr)
	body, err := c.roundTrip(OpProof, c.req)
	if err != nil {
		return nil, err
	}
	return proof.DecodeProof(body)
}

// Root fetches the transparency log's current position: the authority's
// public key, latest signed head, and newest entry. Fully decoded, safe
// to retain.
func (c *Client) Root() (*proof.RootInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, err := c.roundTrip(OpRoot, nil)
	if err != nil {
		return nil, err
	}
	return proof.DecodeRootInfo(body)
}

// RootRange fetches transparency-log entries with 0-based indices
// [from, to) plus the consistency proof between the size-from and size-to
// logs. Fully decoded, safe to retain.
func (c *Client) RootRange(from, to uint64) (*proof.RangeResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.req = AppendRootRange(c.req[:0], from, to)
	body, err := c.roundTrip(OpRootRange, c.req)
	if err != nil {
		return nil, err
	}
	return proof.DecodeRangeResult(body)
}

// Tamper asks the server to flip a stored ciphertext bit at an address —
// honored only by servers started with tampering enabled.
func (c *Client) Tamper(addr uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.req = AppendAddr(c.req[:0], addr)
	_, err := c.roundTrip(OpTamper, c.req)
	return err
}
