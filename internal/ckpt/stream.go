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
// the wrong context) surfaces as *secmem.IntegrityError. The one exception is
// the twelve bytes that say what the rest is: input that opens with another
// container's header, or another version's, is a *secmem.VersionError.
package ckpt

import (
	"bufio"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"github.com/securemem/morphtree/internal/container"
	"github.com/securemem/morphtree/internal/secmem"
)

// Stream format (integers little-endian):
//
//	magic "MCST" | u64 version | u16 len(context) | context |
//	frames: u32 payloadLen | payload | u32 crc32c(payload) |
//	end frame: u32 0 | 32-byte HMAC-SHA256 over everything before it
//
// Each frame is CRC-framed so corruption is localized and detected before
// buffering unbounded garbage; the trailing keyed MAC authenticates the
// whole stream (including the header, so version/context are covered).
// The context string binds the key to a role and a chain position — a delta
// segment cannot be replayed as another even under the same master key.
const (
	streamMagic = "MCST"
	// streamVersion 2: the line MAC became GHASH-then-AES (DESIGN §4), so
	// every sealed line a stream carries moved.
	streamVersion = 2
	streamMACLen  = sha256.Size

	// ChunkBytes is the frame payload size: large enough to amortize
	// framing, small enough that encode/decode memory stays bounded no
	// matter how big the shipped state is.
	ChunkBytes = 64 << 10

	// maxFrame rejects absurd frame lengths before allocating.
	maxFrame = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func tamper(context, reason string) error {
	return &secmem.IntegrityError{Level: -1, Reason: "ckpt stream (" + context + "): " + reason}
}

// StreamWriter frames and authenticates a byte stream. Close is mandatory:
// it flushes the final partial frame and appends the end frame + MAC, and
// a stream without them fails decoding (a truncated ship is never silently
// accepted as complete).
type StreamWriter struct {
	w       io.Writer
	mac     hash.Hash
	context string
	buf     [ChunkBytes]byte
	n       int
	closed  bool
}

// NewStreamWriter writes the stream header and returns the framing writer.
func NewStreamWriter(w io.Writer, key []byte, context string) (*StreamWriter, error) {
	sw := new(StreamWriter)
	if err := sw.Reset(w, key, context); err != nil {
		return nil, err
	}
	return sw, nil
}

// Reset starts a new stream on w, whatever sw wrote before: an owner that
// writes one stream after another (a delta every few seconds) keeps the
// writer, and its 64 KiB frame buffer, instead of leaving one a stream to the
// collector. The zero StreamWriter is ready for it.
func (sw *StreamWriter) Reset(w io.Writer, key []byte, context string) error {
	if len(context) == 0 || len(context) > 1<<10 {
		return fmt.Errorf("ckpt: stream context must be 1..1024 bytes, got %d", len(context))
	}
	sw.w, sw.mac, sw.context, sw.n, sw.closed = w, hmac.New(sha256.New, key), context, 0, false
	hdr := container.AppendHeader(sw.buf[:0], streamMagic, streamVersion)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(context)))
	return sw.emit(append(hdr, context...))
}

// emit writes raw bytes to both the sink and the MAC.
func (sw *StreamWriter) emit(p []byte) error {
	sw.mac.Write(p)
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
		n := copy(sw.buf[sw.n:], p)
		sw.n += n
		p = p[n:]
		if sw.n == ChunkBytes {
			if err := sw.flushFrame(); err != nil {
				return total - len(p), err
			}
		}
	}
	return total, nil
}

func (sw *StreamWriter) flushFrame() error {
	if sw.n == 0 {
		return nil
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(sw.n))
	if err := sw.emit(hdr[:]); err != nil {
		return err
	}
	if err := sw.emit(sw.buf[:sw.n]); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(sw.buf[:sw.n], castagnoli))
	if err := sw.emit(crc[:]); err != nil {
		return err
	}
	sw.n = 0
	return nil
}

// Close flushes the final frame and writes the end frame + MAC trailer.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	if err := sw.flushFrame(); err != nil {
		return err
	}
	var end [4]byte
	if err := sw.emit(end[:]); err != nil {
		return err
	}
	// The trailer authenticates everything including the end frame; it is
	// not itself MAC'd (it IS the MAC).
	if _, err := sw.w.Write(sw.mac.Sum(nil)); err != nil {
		return fmt.Errorf("ckpt: stream trailer: %w", err)
	}
	return nil
}

// StreamReader decodes and authenticates a StreamWriter stream. Reads
// return data as frames verify; when the end frame arrives the whole-
// stream MAC is checked and Read returns io.EOF only if it matches —
// truncation, corruption, or a forged trailer surface as
// *secmem.IntegrityError.
type StreamReader struct {
	r       *bufio.Reader
	mac     hash.Hash
	context string
	frame   []byte
	off     int
	done    bool
	err     error
}

// NewStreamReader consumes and verifies the stream header. Input that is not
// this container at this version is a *secmem.VersionError (a file from
// before the state stream, say). The context must match the writer's: a
// mismatch means the stream is being decoded under the wrong role and is
// rejected as tampering.
func NewStreamReader(r io.Reader, key []byte, context string) (*StreamReader, error) {
	sr := &StreamReader{r: bufio.NewReader(r), mac: hmac.New(sha256.New, key), context: context}
	hdr := make([]byte, container.HeaderBytes+2)
	if _, err := io.ReadFull(sr.r, hdr); err != nil {
		return nil, tamper(context, "header truncated")
	}
	sr.mac.Write(hdr)
	if err := container.CheckHeader(hdr, streamMagic, streamVersion); err != nil {
		return nil, err
	}
	clen := int(binary.LittleEndian.Uint16(hdr[container.HeaderBytes:]))
	ctx := make([]byte, clen)
	if _, err := io.ReadFull(sr.r, ctx); err != nil {
		return nil, tamper(context, "context truncated")
	}
	sr.mac.Write(ctx)
	if string(ctx) != context {
		return nil, tamper(context, fmt.Sprintf("stream context %q does not match role %q", ctx, context))
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

func (sr *StreamReader) nextFrame() error {
	var hdr [4]byte
	if _, err := io.ReadFull(sr.r, hdr[:]); err != nil {
		return tamper(sr.context, "frame header truncated")
	}
	sr.mac.Write(hdr[:])
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		// End frame: verify the whole-stream MAC.
		trailer := make([]byte, streamMACLen)
		if _, err := io.ReadFull(sr.r, trailer); err != nil {
			return tamper(sr.context, "MAC trailer truncated")
		}
		if !hmac.Equal(sr.mac.Sum(nil), trailer) {
			return tamper(sr.context, "stream MAC mismatch (tampering)")
		}
		sr.done = true
		sr.frame, sr.off = nil, 0
		return nil
	}
	if n > maxFrame {
		return tamper(sr.context, fmt.Sprintf("frame length %d exceeds limit", n))
	}
	buf := make([]byte, int(n)+4)
	if _, err := io.ReadFull(sr.r, buf); err != nil {
		return tamper(sr.context, "frame truncated")
	}
	sr.mac.Write(buf)
	payload, crcGot := buf[:n], binary.LittleEndian.Uint32(buf[n:])
	if crc32.Checksum(payload, castagnoli) != crcGot {
		return tamper(sr.context, "frame CRC mismatch")
	}
	sr.frame, sr.off = payload, 0
	return nil
}

// Drain verifies the remainder of the stream (through the MAC trailer)
// while discarding the data — callers that stopped consuming early use it
// to confirm authenticity before trusting what they already read.
func (sr *StreamReader) Drain() error {
	_, err := io.Copy(io.Discard, sr)
	return err
}
