// Package ckpt (morphckpt) is the checkpoint layer under internal/durable: a
// streaming authenticated codec, the state stream that travels in it (full
// snapshots, which a replica also bootstraps from, and the delta segments
// chained to them),
// chain resolution for recovery
// and the stale-epoch sweep, and a background checkpoint runner. It knows
// nothing about WALs or committers — durable composes it.
//
// Everything here fails closed the same way the rest of the tree does:
// framing damage, MAC mismatch, or role confusion (a stream decoded under
// the wrong context) surfaces as *secmem.IntegrityError, and a frame's bytes
// reach a reader only once its tag has checked. The one exception is the
// twelve bytes that say what the rest is: input that opens with another
// container's header, or another version's, is a *secmem.VersionError.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/securemem/morphtree/internal/container"
	"github.com/securemem/morphtree/internal/mac"
	"github.com/securemem/morphtree/internal/secmem"
)

// Stream format (integers little-endian):
//
//	magic "MCST" | u64 version | u16 len(context) | context |
//	frames: u32 len | payload | u64 tag |
//	end frame: u32 0 | u64 tag
//
// The tags are one chain of the line MAC under the stream key
// (mac.Keyer.Frame, DESIGN §17): t0, never written, is Frame(0, 0, header);
// frame i's tag is Frame(i, t(i-1), payload), the end frame's Frame(n+1,
// t(n), nil). Each tag so binds the header — version and context, which binds
// the key to a role and a chain position — and every frame before it, so a
// reader releases a frame's payload once its tag checks, and only the end
// tag says the stream is whole.
const (
	streamMagic = "MCST"
	// streamVersion 3: each frame carries a tag of the line MAC's chain,
	// where version 2 had a CRC-32C and the stream one HMAC-SHA256 trailer.
	streamVersion      = 3
	lenBytes, tagBytes = 4, 8

	// ChunkBytes is the largest frame payload, and what every frame but a
	// stream's last holds: large enough to amortize framing, small enough
	// that encode/decode memory stays bounded no matter how big the shipped
	// state is.
	ChunkBytes = 64 << 10
)

func tamper(context, reason string) error {
	return &secmem.IntegrityError{Level: -1, Reason: "ckpt stream (" + context + "): " + reason}
}

// chain is one stream's tags: the Keyer under the stream key, the ordinal of
// the next frame and the tag of the last, t0 to start.
type chain struct {
	k          *mac.Keyer
	next, prev uint64
}

func newChain(key, header []byte) (chain, error) {
	k, err := mac.New(key, mac.Width64)
	if err != nil {
		return chain{}, fmt.Errorf("ckpt: stream key: %w", err)
	}
	return chain{k: k, next: 1, prev: k.Frame(0, 0, header)}, nil
}

// tag advances the chain over the next frame's payload and returns its tag.
func (c *chain) tag(payload []byte) uint64 {
	c.prev = c.k.Frame(c.next, c.prev, payload)
	c.next++
	return c.prev
}

// StreamWriter frames and authenticates a byte stream. Close is mandatory:
// it flushes the final partial frame and appends the end frame, and a
// stream without it fails decoding (a truncated ship is never silently
// accepted as complete).
type StreamWriter struct {
	w     io.Writer
	chain chain
	// buf is a frame as it goes out: its length, up to ChunkBytes of payload
	// from buf[lenBytes:], and its tag.
	buf    [lenBytes + ChunkBytes + tagBytes]byte
	n      int
	closed bool
}

// Reset starts a new stream on w, writing its header, whatever sw wrote
// before: an owner that writes one stream after another (a delta every few
// seconds) keeps the writer, and its 64 KiB frame buffer, instead of leaving
// one a stream to the collector. The zero StreamWriter is ready for it.
func (sw *StreamWriter) Reset(w io.Writer, key []byte, context string) error {
	if len(context) == 0 || len(context) > 1<<10 {
		return fmt.Errorf("ckpt: stream context must be 1..1024 bytes, got %d", len(context))
	}
	hdr := container.AppendHeader(sw.buf[:0], streamMagic, streamVersion)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(context)))
	hdr = append(hdr, context...)
	c, err := newChain(key, hdr)
	if err != nil {
		return err
	}
	sw.w, sw.chain, sw.n, sw.closed = w, c, 0, false
	return sw.emit(hdr)
}

func (sw *StreamWriter) emit(p []byte) error {
	if _, err := sw.w.Write(p); err != nil {
		return fmt.Errorf("ckpt: stream write: %w", err)
	}
	return nil
}

// Write implements io.Writer, buffering into ChunkBytes frames.
func (sw *StreamWriter) Write(p []byte) (int, error) {
	if sw.closed {
		return 0, fmt.Errorf("ckpt: write after Close")
	}
	total := len(p)
	for len(p) > 0 {
		n := copy(sw.buf[lenBytes+sw.n:lenBytes+ChunkBytes], p)
		sw.n += n
		p = p[n:]
		if sw.n == ChunkBytes {
			if err := sw.frame(); err != nil {
				return total - len(p), err
			}
		}
	}
	return total, nil
}

// frame writes what is buffered as one frame, in one write; with nothing
// buffered, that is the end frame.
func (sw *StreamWriter) frame() error {
	end := lenBytes + sw.n
	binary.LittleEndian.PutUint32(sw.buf[:], uint32(sw.n))
	binary.LittleEndian.PutUint64(sw.buf[end:], sw.chain.tag(sw.buf[lenBytes:end]))
	sw.n = 0
	return sw.emit(sw.buf[:end+tagBytes])
}

// Close flushes the final frame and writes the end frame.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	if sw.n > 0 {
		if err := sw.frame(); err != nil {
			return err
		}
	}
	return sw.frame()
}

// StreamReader decodes and authenticates a StreamWriter stream. Read returns
// a frame's bytes only once its tag has checked, and io.EOF only once the
// end frame's has: truncation, corruption, reordering or a forged tag
// surface as *secmem.IntegrityError, before any byte of the frame they are
// in.
type StreamReader struct {
	r       *bufio.Reader
	chain   chain
	context string
	// buf holds the frame being read and its tag; frame is its payload.
	buf, frame []byte
	off        int
	done       bool
	err        error
}

// NewStreamReader consumes the stream header. Input that is not this
// container at this version is a *secmem.VersionError (a file from before
// the state stream, say). The context must match the writer's: a mismatch
// means the stream is being decoded under the wrong role and is rejected as
// tampering.
func NewStreamReader(r io.Reader, key []byte, context string) (*StreamReader, error) {
	sr := &StreamReader{r: bufio.NewReader(r), context: context}
	hdr := make([]byte, container.HeaderBytes+2, container.HeaderBytes+2+len(context))
	if _, err := io.ReadFull(sr.r, hdr); err != nil {
		return nil, tamper(context, "header truncated")
	}
	if err := container.CheckHeader(hdr, streamMagic, streamVersion); err != nil {
		return nil, err
	}
	ctx := make([]byte, binary.LittleEndian.Uint16(hdr[container.HeaderBytes:]))
	if _, err := io.ReadFull(sr.r, ctx); err != nil {
		return nil, tamper(context, "context truncated")
	}
	if string(ctx) != context {
		return nil, tamper(context, fmt.Sprintf("stream context %q does not match role %q", ctx, context))
	}
	var err error
	if sr.chain, err = newChain(key, append(hdr, ctx...)); err != nil {
		return nil, err
	}
	return sr, nil
}

// Read implements io.Reader.
func (sr *StreamReader) Read(p []byte) (int, error) {
	if sr.err != nil {
		return 0, sr.err
	}
	for sr.off == len(sr.frame) {
		if sr.done {
			sr.err = io.EOF
			return 0, io.EOF
		}
		if err := sr.nextFrame(); err != nil {
			sr.err = err
			return 0, err
		}
	}
	n := copy(p, sr.frame[sr.off:])
	sr.off += n
	return n, nil
}

// nextFrame reads the next frame and checks its tag; only then does its
// payload become sr.frame.
func (sr *StreamReader) nextFrame() error {
	var hdr [lenBytes]byte
	if _, err := io.ReadFull(sr.r, hdr[:]); err != nil {
		return tamper(sr.context, fmt.Sprintf("frame %d truncated", sr.chain.next))
	}
	length := binary.LittleEndian.Uint32(hdr[:])
	if length > ChunkBytes {
		return tamper(sr.context, fmt.Sprintf("frame %d: length %d exceeds %d", sr.chain.next, length, ChunkBytes))
	}
	n := int(length)
	if cap(sr.buf) < n+tagBytes {
		sr.buf = make([]byte, n+tagBytes)
	}
	buf := sr.buf[:n+tagBytes]
	if _, err := io.ReadFull(sr.r, buf); err != nil {
		return tamper(sr.context, fmt.Sprintf("frame %d truncated", sr.chain.next))
	}
	if sr.chain.tag(buf[:n]) != binary.LittleEndian.Uint64(buf[n:]) {
		return tamper(sr.context, fmt.Sprintf("frame %d: tag mismatch (tampering)", sr.chain.next-1))
	}
	sr.frame, sr.off, sr.done = buf[:n], 0, n == 0
	return nil
}
