// Package wal is morphdur's write-ahead log: an append-only file of
// length-prefixed, CRC-framed, MAC-authenticated records journaling every
// write applied to a secure-memory shard. A record is durable once its
// frame is fsynced; recovery replays the valid prefix and distinguishes the
// ways a file can be bad:
//
//   - A torn tail — a frame cut short or CRC-corrupted by a crash mid-append
//     — ends replay with a typed *TornTailError. The durability layer
//     truncates the file to the valid prefix and continues (crashes must
//     never brick recovery); this package never truncates.
//   - Tampering — a frame whose bytes are intact (CRC matches) but whose
//     keyed MAC does not, or whose LSN breaks the expected sequence — fails
//     replay with a *secmem.IntegrityError. A CRC is trivially recomputable
//     by an adversary with file access; the engine's line MAC (mac.Keyer's
//     Record) under a key derived from the master key is not.
//   - Another generation — a frame whose kind byte is not KindWrite, as every
//     frame of a build that sealed records with HMAC is — fails with a
//     *secmem.VersionError before its MAC is looked at.
//
// Write-record payloads are sealed (AES-CTR under a second derived key,
// pad bound to the record's LSN) so plaintext cachelines never touch disk:
// the WAL is part of untrusted storage exactly like the engine's store.
//
// Frame layout (all integers little-endian, matching the persistence
// format):
//
//	| u32 body length | u32 CRC-32C(body) | body |
//	body = | kind u8 | lsn u64 | addr u64 | sealed line (64) | mac u64 |
//
// The MAC covers everything in the body before it. LSNs are assigned by the
// caller and must increase by exactly one per record within a segment, so a
// spliced, reordered, or cross-segment-replayed record is detected even
// when each individual frame verifies.
package wal

import (
	"bufio"
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"github.com/securemem/morphtree/internal/aesctr"
	"github.com/securemem/morphtree/internal/mac"
	"github.com/securemem/morphtree/internal/secmem"
)

// KindWrite is the kind byte of every record: one data-line write, Addr the
// global line-aligned address, Line the 64-byte plaintext (sealed on disk).
// It names the record's generation too. Kinds 0x01 to 0x03 were a write
// sealed by HMAC-SHA256 and two audit records; a frame of any kind but this
// one is refused with a *secmem.VersionError.
const KindWrite byte = 0x04

// Sizes of the on-disk encoding.
const (
	frameHdrBytes = 8  // u32 length + u32 CRC
	recFixedBytes = 17 // kind + lsn + addr
	macBytes      = 8
	// bodyBytes is the length of every record's body.
	bodyBytes = recFixedBytes + secmem.LineBytes + macBytes
	// WriteFrameBytes is the exact on-disk size of a frame. Crash harnesses
	// use it to predict how many whole records survive a truncation at a
	// given byte offset, and the replication cursor to find a record.
	WriteFrameBytes = frameHdrBytes + bodyBytes
	// maxBody bounds a frame body; anything larger is crash garbage (or
	// hostile) and is treated as a torn tail before it is read.
	maxBody = 4096
	// readBufBytes bounds the buffer a segment is read through.
	readBufBytes = 64 << 10
	// frameFormat names the WAL frame in a *secmem.VersionError, whose
	// version is the frame's kind byte.
	frameFormat = "wal frame"
)

// KindError is the *secmem.VersionError for input of WAL records of kind, a
// generation this build does not read.
func KindError(kind byte) error {
	return &secmem.VersionError{Magic: frameFormat, Version: uint64(kind), Want: frameFormat, WantVersion: uint64(KindWrite)}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one journaled write. A Record a decoder hands to its callback
// (DecodeAll, ReplayTail, ReadRange) aliases the decoder's scratch: its Line
// is valid only until the callback returns, so a callback that keeps a
// record copies its Line.
type Record struct {
	// Kind is KindWrite.
	Kind byte
	// LSN is the record's log sequence number, contiguous within a
	// segment.
	LSN uint64
	// Addr is the global line-aligned address.
	Addr uint64
	// Line is the 64-byte plaintext line.
	Line []byte
}

// TornTailError reports a WAL whose final record was cut short or
// corrupted by a crash mid-append. Offset is where the valid prefix ends;
// truncating there and continuing is the sanctioned response.
type TornTailError struct {
	Path   string
	Offset int64
	Reason string
}

// Error implements error.
func (e *TornTailError) Error() string {
	return fmt.Sprintf("wal: torn tail in %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// FrameError reports a replication batch whose framing is damaged: a frame
// cut short, a length no record has, or a CRC that does not match. A batch
// arrives whole over an authenticated transport, so unlike a segment's torn
// tail this is never tolerated; unlike a *secmem.IntegrityError it says
// nothing about the key, only that the bytes are not a run of frames.
type FrameError struct {
	// Offset is where in the batch the damaged frame starts.
	Offset int
	Reason string
}

// Error implements error.
func (e *FrameError) Error() string {
	return fmt.Sprintf("wal: batch frame at offset %d: %s", e.Offset, e.Reason)
}

// Options configure a log's sealing keys.
type Options struct {
	// Key seals record payloads and MACs frames. It is derived per
	// (shard, segment) by the durability layer, so a record can never
	// verify outside the exact segment it was written to. Required.
	//
	//morph:secret
	Key []byte
}

// keys are the independent encryption and authentication subkeys derived
// from an Options key (never using one key for both primitives). The record
// MAC is the engine's line MAC at full width.
type keys struct {
	cipher *aesctr.Cipher
	mac    *mac.Keyer
}

func deriveKeys(opt Options) (keys, error) {
	if len(opt.Key) == 0 {
		return keys{}, errors.New("wal: sealing key is required")
	}
	cipher, err := aesctr.New(mac.Derive(opt.Key, "morphtree/wal/enc"))
	if err != nil {
		return keys{}, fmt.Errorf("wal: derive enc key: %w", err)
	}
	keyer, err := mac.New(mac.Derive(opt.Key, "morphtree/wal/mac"), mac.Width64)
	if err != nil {
		return keys{}, fmt.Errorf("wal: derive mac key: %w", err)
	}
	return keys{cipher: cipher, mac: keyer}, nil
}

// seal builds r's frame where it lies, or returns why r cannot be
// journaled: frame is exactly WriteFrameBytes long, and the header, the
// fields, the sealed line, the MAC and the CRC are each written to their
// place in it.
func (k keys) seal(frame []byte, r Record) error {
	if r.Kind != KindWrite {
		return fmt.Errorf("wal: record kind %#x, want %#x", r.Kind, KindWrite)
	}
	if len(r.Line) != secmem.LineBytes {
		return fmt.Errorf("wal: write record line is %d bytes, want %d", len(r.Line), secmem.LineBytes)
	}
	body := frame[frameHdrBytes:]
	macOff := bodyBytes - macBytes
	body[0] = r.Kind
	binary.LittleEndian.PutUint64(body[1:], r.LSN)
	binary.LittleEndian.PutUint64(body[9:], r.Addr)
	// Seal the line: the pad is bound to the LSN, unique within the
	// segment key's lifetime.
	if err := k.cipher.XOR(body[recFixedBytes:macOff], r.Line, r.LSN, 0); err != nil {
		return fmt.Errorf("wal: seal record %d: %w", r.LSN, err)
	}
	binary.LittleEndian.PutUint64(body[macOff:], k.mac.Record(body[:macOff]))
	binary.LittleEndian.PutUint32(frame[0:], bodyBytes)
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(body, castagnoli))
	return nil
}

// Codec seals and opens records in the WAL frame format without a backing
// file. The cluster layer uses it to ship batches of records over the wire
// in exactly the on-disk encoding — CRC-framed, MAC'd, AES-CTR-sealed —
// under a key bound to the sender's fencing epoch, so a batch from a
// deposed primary fails authentication instead of corrupting a replica.
type Codec struct {
	keys keys
}

// NewCodec derives a codec's sealing keys from opt.
func NewCodec(opt Options) (*Codec, error) {
	k, err := deriveKeys(opt)
	if err != nil {
		return nil, err
	}
	return &Codec{keys: k}, nil
}

// AppendRecord appends r's sealed frame (header + body) to dst and returns
// the extended slice. The frame is sealed in dst itself, so appending to a
// slice with room allocates nothing.
func (c *Codec) AppendRecord(dst []byte, r Record) ([]byte, error) {
	off := len(dst)
	dst = slices.Grow(dst, WriteFrameBytes)[:off+WriteFrameBytes]
	if err := c.keys.seal(dst[off:], r); err != nil {
		return dst[:off], err
	}
	return dst, nil
}

// DecodeAll decodes every frame in p, calling fn for each record in order as
// its frame authenticates.
// firstLSN anchors the contiguity check exactly as in file replay. Unlike
// file replay there is no torn-tail tolerance: p arrived length-delimited
// over an authenticated transport, so any framing damage is corruption and
// returns a *FrameError rather than a tolerated tail. Returns the number of
// records decoded.
func (c *Codec) DecodeAll(p []byte, firstLSN uint64, fn func(Record) error) (int, error) {
	return decodeFrames(c.keys, bytes.NewReader(p), "replication batch", firstLSN, fn)
}

// decodeFrames reads frames from r one at a time, the first of LSN firstLSN,
// into one buffer, and calls fn for each record in order, its Line unsealed
// into one scratch; what names r in an error. It returns the number of
// records fn was given. Damaged framing is a *FrameError whose offset counts
// from r's start; an error reading r is returned as it is.
func decodeFrames(k keys, r io.Reader, what string, firstLSN uint64, fn func(Record) error) (int, error) {
	buf := new(struct {
		frame [frameHdrBytes + maxBody]byte
		line  [secmem.LineBytes]byte
	})
	for n := 0; ; n++ {
		// Every frame before this one decoded, so each was WriteFrameBytes.
		body, err := readFrame(r, buf.frame[:], n*WriteFrameBytes)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		rec, err := decodeBody(k, body, what, firstLSN+uint64(n), buf.line[:])
		if err != nil {
			return n, err
		}
		if err := fn(rec); err != nil {
			return n, err
		}
	}
}

// readFrame reads the frame at offset off of r into buf and returns its body:
// io.EOF when r ends before it, a *FrameError when what r holds is not a whole
// frame whose CRC matches. A body of any length up to maxBody is returned, so
// that an older generation's frame reaches the kind check; decodeBody holds a
// current one to its length.
func readFrame(r io.Reader, buf []byte, off int) ([]byte, error) {
	hdr := buf[:frameHdrBytes]
	if got, err := io.ReadFull(r, hdr); err == io.ErrUnexpectedEOF {
		return nil, &FrameError{Offset: off, Reason: fmt.Sprintf("%d trailing bytes, want a %d-byte frame header", got, frameHdrBytes)}
	} else if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < 1 || n > maxBody {
		return nil, &FrameError{Offset: off, Reason: fmt.Sprintf("frame length %d outside [1, %d]", n, maxBody)}
	}
	body := buf[frameHdrBytes : frameHdrBytes+int(n)]
	if got, err := io.ReadFull(r, body); err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil, &FrameError{Offset: off, Reason: fmt.Sprintf("frame body cut short: %d of %d bytes", got, n)}
	} else if err != nil {
		return nil, err
	}
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(hdr[4:]); got != want {
		return nil, &FrameError{Offset: off, Reason: fmt.Sprintf("frame CRC %#x, want %#x", got, want)}
	}
	return body, nil
}

// section is a buffered reader of the n bytes of f from off on.
func section(f *os.File, off, n int64) io.Reader {
	return bufio.NewReaderSize(io.NewSectionReader(f, off, n), int(min(n, readBufBytes)))
}

// Log is an append-only WAL segment writer. It is not safe for concurrent
// use; the durability layer serializes appends per shard (that lock doubles
// as the apply-order lock, keeping replay order identical to apply order).
type Log struct {
	path string
	keys keys
	f    *os.File
	bw   *bufio.Writer
	// frame is where Append seals a record before handing it to bw in one
	// write.
	frame [WriteFrameBytes]byte
}

// Create creates a fresh segment at path, failing if it already exists
// (segments are immutable once superseded; an existing file means a
// sequencing bug or a leftover the recovery scan should have handled).
func Create(path string, opt Options) (*Log, error) { return openLog(path, opt, os.O_EXCL) }

// Open opens an existing segment for appending. Callers replay (and
// truncate) the segment first; Open itself does not validate content.
func Open(path string, opt Options) (*Log, error) { return openLog(path, opt, 0) }

func openLog(path string, opt Options, flag int) (*Log, error) {
	k, err := deriveKeys(opt)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &Log{path: path, keys: k, f: f, bw: bufio.NewWriter(f)}, nil
}

// Path returns the segment's file path.
func (l *Log) Path() string { return l.path }

// Append buffers one record's frame. The record is NOT durable until Sync
// returns; it is not even visible to a re-open until Flush.
func (l *Log) Append(r Record) error {
	if err := l.keys.seal(l.frame[:], r); err != nil {
		return err
	}
	if _, err := l.bw.Write(l.frame[:]); err != nil {
		return fmt.Errorf("wal: append %s: %w", l.path, err)
	}
	return nil
}

// Flush pushes buffered frames to the OS. Data still sits in the page
// cache; only Sync makes it crash-durable.
func (l *Log) Flush() error {
	if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("wal: flush %s: %w", l.path, err)
	}
	return nil
}

// Sync flushes and fsyncs the segment — the group-commit durability point.
func (l *Log) Sync() error {
	if err := l.Flush(); err != nil {
		return err
	}
	return l.Fsync()
}

// Fsync fsyncs the underlying file without touching the append buffer, so a
// group-commit leader can fsync outside the append lock after flushing
// under it (the buffer is not safe for concurrent Flush/Append).
func (l *Log) Fsync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", l.path, err)
	}
	return nil
}

// Close flushes, fsyncs, and closes the segment.
func (l *Log) Close() error {
	syncErr := l.Sync()
	closeErr := l.f.Close()
	if syncErr != nil {
		return syncErr
	}
	if closeErr != nil {
		return fmt.Errorf("wal: close %s: %w", l.path, closeErr)
	}
	return nil
}

// ReplayInfo summarizes one segment's replay.
type ReplayInfo struct {
	// Records is the number of valid records the segment holds: its covered
	// prefix, counted from the file's size, and the frames decoded past it.
	Records int
	// LastLSN is the LSN of the final valid record (firstLSN-1 if none).
	LastLSN uint64
	// Authenticated is how many frames were read and MAC-checked: the ones
	// past the covered prefix. BytesRead is the length of the file past that
	// prefix, which replay reads a frame at a time.
	Authenticated int
	BytesRead     int64
	// TornTail is non-nil if the file ended in a crash-torn record; the
	// valid prefix up to TornTail.Offset was still replayed.
	TornTail *TornTailError
}

// ShortSegmentError reports a segment that ends inside its covered prefix:
// it holds Records whole records where the checkpoint covering it claims
// Covered. A checkpoint is cut only once its covered prefix is durable, so a
// crash never leaves this; a later segment may carry the prefix on (a full
// checkpoint that failed rotated the shard past this one), which only the
// caller can tell.
type ShortSegmentError struct {
	Path             string
	Records, Covered uint64
}

// Error implements error.
func (e *ShortSegmentError) Error() string {
	return fmt.Sprintf("wal: segment %s ends after %d records, inside its covered prefix of %d", e.Path, e.Records, e.Covered)
}

// ReplayTail decodes the records of the segment at path from LSN fromLSN on,
// calling fn for each in order. firstLSN is the LSN the segment starts at;
// the records below fromLSN are its covered prefix, which a checkpoint
// already holds: every frame is WriteFrameBytes long, so the prefix is
// counted from the file's size and the rest read one frame at a time from
// its end, and only what is read is CRC-, MAC- and sequence-checked (DESIGN.md §10
// says why the prefix need not be). A missing file replays as empty — a
// crash between snapshot rename and segment creation legitimately leaves no
// segment.
//
// ReplayTail reads and reports; it writes nothing. A torn tail ends replay
// without error, recorded in the info for the caller to truncate. MAC or
// sequence violations return a *secmem.IntegrityError, and a frame of another
// generation a *secmem.VersionError; either replays no further records. A
// file that ends inside its covered prefix returns a *ShortSegmentError
// beside the info its size gives: the records it holds, and a torn tail if
// its last frame is partial.
func ReplayTail(path string, opt Options, firstLSN, fromLSN uint64, fn func(Record) error) (ReplayInfo, error) {
	info := ReplayInfo{LastLSN: firstLSN - 1}
	k, err := deriveKeys(opt)
	if err != nil {
		return info, err
	}
	var size int64
	f, err := os.Open(path)
	if err == nil {
		defer f.Close()
		size, err = f.Seek(0, io.SeekEnd)
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return info, fmt.Errorf("wal: replay %s: %w", path, err)
	}
	whole := uint64(size / WriteFrameBytes)
	var covered uint64
	if fromLSN > firstLSN {
		covered = fromLSN - firstLSN
	}
	if covered > whole {
		info.Records, info.LastLSN = int(whole), firstLSN+whole-1
		if size%WriteFrameBytes != 0 {
			info.TornTail = &TornTailError{Path: path, Offset: int64(whole) * WriteFrameBytes, Reason: "partial frame inside the covered prefix"}
		}
		return info, &ShortSegmentError{Path: path, Records: whole, Covered: covered}
	}
	off := int64(covered) * WriteFrameBytes
	info.BytesRead = size - off
	if f == nil {
		return info, nil
	}
	n, err := decodeFrames(k, section(f, off, info.BytesRead), path, firstLSN+covered, fn)
	info.Authenticated, info.Records = n, int(covered)+n
	info.LastLSN = firstLSN + uint64(info.Records) - 1
	var fe *FrameError
	if errors.As(err, &fe) {
		info.TornTail = &TornTailError{Path: path, Offset: off + int64(fe.Offset), Reason: fe.Reason}
		err = nil
	}
	return info, err
}

// ReadRange decodes the n records from LSN from on of the segment at path,
// whose first record is firstLSN, calling fn for each in order. Every frame is
// WriteFrameBytes long, so they are read from their offset and nothing before
// them is read; each is CRC-, MAC- and LSN-checked as DecodeAll checks a
// batch. It is the replication cursor's read of the live segment, and the
// records it asks for are durable: a segment that ends before them is an
// error wrapping io.ErrUnexpectedEOF, or a *FrameError if it ends mid-frame,
// and damaged framing a *FrameError whose offset counts from record from.
func ReadRange(path string, opt Options, firstLSN, from uint64, n int, fn func(Record) error) error {
	if from < firstLSN || n < 0 {
		return fmt.Errorf("wal: read %d records from LSN %d of a segment starting at %d", n, from, firstLSN)
	}
	k, err := deriveKeys(opt)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: read %s: %w", path, err)
	}
	defer f.Close()
	got, err := decodeFrames(k, section(f, int64(from-firstLSN)*WriteFrameBytes, int64(n)*WriteFrameBytes), path, from, fn)
	if err == nil && got < n {
		err = fmt.Errorf("wal: %s ends after %d of records %d to %d: %w", path, got, from, from+uint64(n)-1, io.ErrUnexpectedEOF)
	}
	return err
}

// decodeBody authenticates and unseals one CRC-valid body. The CRC having
// matched, a failure here means deliberate modification or a frame of
// another generation, not a crash: the kind byte is read first, and any but
// KindWrite is a *secmem.VersionError, so an older build's frames are never
// reported as tampered; anything else is a *secmem.IntegrityError, the same
// fail-closed type the engine raises for tampered memory. The line is
// unsealed into line, which the record's Line is.
func decodeBody(k keys, body []byte, what string, wantLSN uint64, line []byte) (Record, error) {
	if body[0] != KindWrite {
		return Record{}, KindError(body[0])
	}
	if len(body) != bodyBytes {
		return Record{}, &secmem.IntegrityError{Level: -1, Index: wantLSN,
			Reason: fmt.Sprintf("wal record body in %s is %d bytes, want %d", what, len(body), bodyBytes)}
	}
	rec := Record{Kind: KindWrite, LSN: binary.LittleEndian.Uint64(body[1:]), Addr: binary.LittleEndian.Uint64(body[9:])}
	macOff := bodyBytes - macBytes
	var want [macBytes]byte
	binary.LittleEndian.PutUint64(want[:], k.mac.Record(body[:macOff]))
	if subtle.ConstantTimeCompare(body[macOff:], want[:]) != 1 {
		return Record{}, &secmem.IntegrityError{Level: -1, Index: rec.LSN,
			Reason: fmt.Sprintf("wal record MAC mismatch in %s (at-rest tampering)", what)}
	}
	if rec.LSN != wantLSN {
		return Record{}, &secmem.IntegrityError{Level: -1, Index: rec.LSN,
			Reason: fmt.Sprintf("wal record LSN %d in %s, want %d (spliced or replayed log)", rec.LSN, what, wantLSN)}
	}
	rec.Line = line
	if err := k.cipher.XOR(rec.Line, body[recFixedBytes:macOff], rec.LSN, 0); err != nil {
		return Record{}, fmt.Errorf("wal: unseal record %d: %w", rec.LSN, err)
	}
	return rec, nil
}

// SyncDir fsyncs a directory so renames and creates within it are durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir %s: %w", dir, err)
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return fmt.Errorf("wal: fsync dir %s: %w", dir, syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("wal: close dir %s: %w", dir, closeErr)
	}
	return nil
}

var _ io.Closer = (*Log)(nil)
