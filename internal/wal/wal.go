// Package wal is morphdur's write-ahead log: an append-only file of
// length-prefixed, CRC-framed, MAC-authenticated records journaling every
// mutation applied to a secure-memory shard. A record is durable once its
// frame is fsynced; recovery replays the valid prefix and distinguishes the
// two ways a file can be bad:
//
//   - A torn tail — a frame cut short or CRC-corrupted by a crash mid-append
//     — ends replay with a typed *TornTailError. Callers truncate the file
//     to the valid prefix and continue (crashes must never brick recovery).
//   - Tampering — a frame whose bytes are intact (CRC matches) but whose
//     keyed MAC does not, or whose LSN breaks the expected sequence — fails
//     replay with a *secmem.IntegrityError. A CRC is trivially recomputable
//     by an adversary with file access; the truncated HMAC-SHA256 under a
//     key derived from the master key is not.
//
// Write-record payloads are sealed (AES-CTR under a second derived key,
// pad bound to the record's LSN) so plaintext cachelines never touch disk:
// the WAL is part of untrusted storage exactly like the engine's store.
//
// Frame layout (all integers little-endian, matching the persistence
// format):
//
//	| u32 body length | u32 CRC-32C(body) | body |
//	body = | kind u8 | lsn u64 | addr u64 | count u64 | payload | mac u64 |
//
// The MAC covers everything in the body before it. LSNs are assigned by the
// caller and must increase by exactly one per record within a segment, so a
// spliced, reordered, or cross-segment-replayed record is detected even
// when each individual frame verifies.
package wal

import (
	"bufio"
	"crypto/hmac"
	"crypto/sha256"
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

// Record kinds.
const (
	// KindWrite journals one data-line write: Addr is the global
	// line-aligned address, Line the 64-byte plaintext (sealed on disk).
	KindWrite byte = 0x01
	// KindOverflow is an audit record: Count counter-overflow
	// re-encryption events occurred since the previous audit record. The
	// store journals writes only — replaying them regenerates every such
	// event — but segments of earlier versions hold audit records, so the
	// decoder still reads them and replay skips them.
	KindOverflow byte = 0x02
	// KindRebase is an audit record, read like KindOverflow: Count
	// morphable-counter rebase events since the previous audit record.
	KindRebase byte = 0x03
)

// Sizes of the on-disk encoding.
const (
	frameHdrBytes = 8  // u32 length + u32 CRC
	recFixedBytes = 25 // kind + lsn + addr + count
	macBytes      = 8
	// WriteFrameBytes is the exact on-disk size of a KindWrite frame.
	// Crash harnesses use it to predict how many whole records survive a
	// truncation at a given byte offset.
	WriteFrameBytes = frameHdrBytes + recFixedBytes + secmem.LineBytes + macBytes
	// AuditFrameBytes is the on-disk size of a payload-less audit frame.
	AuditFrameBytes = frameHdrBytes + recFixedBytes + macBytes
	// maxBody bounds a frame body; anything larger is crash garbage (or
	// hostile) and is treated as a torn tail before allocation.
	maxBody = 4096
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one journaled mutation.
type Record struct {
	Kind byte
	// LSN is the record's log sequence number, contiguous within a
	// segment.
	LSN uint64
	// Addr is the global line-aligned address (KindWrite only).
	Addr uint64
	// Count is the event count carried by audit records.
	Count uint64
	// Line is the 64-byte plaintext line (KindWrite only).
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
// MAC is the engine's pre-keyed mac.Keyer at full width: the first eight
// bytes of HMAC-SHA256 over the body prefix, as every segment on disk has it.
type keys struct {
	cipher *aesctr.Cipher
	mac    *mac.Keyer
}

func deriveKeys(opt Options) (keys, error) {
	if len(opt.Key) == 0 {
		return keys{}, errors.New("wal: sealing key is required")
	}
	sub := func(label string) []byte {
		h := hmac.New(sha256.New, opt.Key)
		h.Write([]byte(label))
		return h.Sum(nil)
	}
	cipher, err := aesctr.New(sub("morphtree/wal/enc"))
	if err != nil {
		return keys{}, fmt.Errorf("wal: derive enc key: %w", err)
	}
	keyer, err := mac.New(sub("morphtree/wal/mac"), mac.Width64)
	if err != nil {
		return keys{}, fmt.Errorf("wal: derive mac key: %w", err)
	}
	return keys{cipher: cipher, mac: keyer}, nil
}

// frameBytes returns the size of r's frame, or an error if r cannot be
// journaled.
func frameBytes(r Record) (int, error) {
	switch r.Kind {
	case KindWrite:
		if len(r.Line) != secmem.LineBytes {
			return 0, fmt.Errorf("wal: write record line is %d bytes, want %d", len(r.Line), secmem.LineBytes)
		}
		return WriteFrameBytes, nil
	case KindOverflow, KindRebase:
		return AuditFrameBytes, nil
	default:
		return 0, fmt.Errorf("wal: unknown record kind %#x", r.Kind)
	}
}

// seal builds r's frame where it lies: frame is exactly frameBytes(r) long,
// and the header, the fields, the sealed payload, the MAC and the CRC are
// each written to their place in it.
//
//morph:hotpath
func (k keys) seal(frame []byte, r Record) error {
	body := frame[frameHdrBytes:]
	macOff := len(body) - macBytes
	body[0] = r.Kind
	binary.LittleEndian.PutUint64(body[1:], r.LSN)
	binary.LittleEndian.PutUint64(body[9:], r.Addr)
	binary.LittleEndian.PutUint64(body[17:], r.Count)
	if r.Kind == KindWrite {
		// Seal the line: the pad is bound to the LSN, unique within the
		// segment key's lifetime.
		if err := k.cipher.XOR(body[recFixedBytes:macOff], r.Line, r.LSN, 0); err != nil {
			return fmt.Errorf("wal: seal record %d: %w", r.LSN, err)
		}
	}
	binary.LittleEndian.PutUint64(body[macOff:], k.mac.Raw(body[:macOff]))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(body, castagnoli))
	return nil
}

// Codec seals and opens records in the WAL frame format without a backing
// file. The cluster layer uses it to ship batches of records over the wire
// in exactly the on-disk encoding — CRC-framed, HMAC'd, AES-CTR-sealed —
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
	n, err := frameBytes(r)
	if err != nil {
		return dst, err
	}
	off := len(dst)
	dst = slices.Grow(dst, n)[:off+n]
	if err := c.keys.seal(dst[off:], r); err != nil {
		return dst[:off], err
	}
	return dst, nil
}

// DecodeAll decodes every frame in p, calling fn for each record in order.
// firstLSN anchors the contiguity check exactly as in file replay. Unlike
// file replay there is no torn-tail tolerance: p arrived length-delimited
// over an authenticated transport, so any framing damage is corruption and
// returns a *FrameError rather than a tolerated tail. Returns the number of
// records decoded.
func (c *Codec) DecodeAll(p []byte, firstLSN uint64, fn func(Record) error) (int, error) {
	next := firstLSN
	n := 0
	off := 0
	for off < len(p) {
		rest := p[off:]
		if len(rest) < frameHdrBytes {
			return n, &FrameError{Offset: off, Reason: fmt.Sprintf("header cut short: %d trailing bytes", len(rest))}
		}
		bl := binary.LittleEndian.Uint32(rest[0:])
		if bl < recFixedBytes+macBytes || bl > maxBody {
			return n, &FrameError{Offset: off, Reason: fmt.Sprintf("length %d outside [%d, %d]", bl, recFixedBytes+macBytes, maxBody)}
		}
		if len(rest) < frameHdrBytes+int(bl) {
			return n, &FrameError{Offset: off, Reason: fmt.Sprintf("body cut short: %d of %d bytes", len(rest)-frameHdrBytes, bl)}
		}
		body := rest[frameHdrBytes : frameHdrBytes+int(bl)]
		if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(rest[4:]); got != want {
			return n, &FrameError{Offset: off, Reason: fmt.Sprintf("CRC %#x, want %#x", got, want)}
		}
		rec, err := decodeBody(c.keys, body, "replication batch", next)
		if err != nil {
			return n, err
		}
		if err := fn(rec); err != nil {
			return n, err
		}
		n++
		next = rec.LSN + 1
		off += frameHdrBytes + int(bl)
	}
	return n, nil
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
	// write; the largest frame is a write record's.
	frame [WriteFrameBytes]byte
}

// Create creates a fresh segment at path, failing if it already exists
// (segments are immutable once superseded; an existing file means a
// sequencing bug or a leftover the recovery scan should have handled).
func Create(path string, opt Options) (*Log, error) {
	k, err := deriveKeys(opt)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", path, err)
	}
	return &Log{path: path, keys: k, f: f, bw: bufio.NewWriter(f)}, nil
}

// Open opens an existing segment for appending. Callers replay (and repair)
// the segment first; Open itself does not validate content.
func Open(path string, opt Options) (*Log, error) {
	k, err := deriveKeys(opt)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &Log{path: path, keys: k, f: f, bw: bufio.NewWriter(f)}, nil
}

// Path returns the segment's file path.
func (l *Log) Path() string { return l.path }

// Append buffers one record's frame. The record is NOT durable until Sync
// returns; it is not even visible to a re-open until Flush.
//
//morph:hotpath
func (l *Log) Append(r Record) error {
	n, err := frameBytes(r)
	if err != nil {
		return err
	}
	frame := l.frame[:n]
	if err := l.keys.seal(frame, r); err != nil {
		return err
	}
	if _, err := l.bw.Write(frame); err != nil {
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
	// Records is the number of valid records decoded (all kinds).
	Records int
	// Delivered is the number of records passed to the callback. Equal to
	// Records for Replay; ReplayRange validates the whole prefix but only
	// delivers records at or past the cursor.
	Delivered int
	// Writes is the number of KindWrite records decoded.
	Writes int
	// LastLSN is the LSN of the final valid record (firstLSN-1 if none).
	LastLSN uint64
	// ValidBytes is the length of the valid prefix.
	ValidBytes int64
	// TornTail is non-nil if the file ended in a crash-torn record; the
	// valid prefix up to TornTail.Offset was still replayed.
	TornTail *TornTailError
	// Truncated reports that repair cut the file back to ValidBytes.
	Truncated bool
}

// Replay decodes records from the segment at path, calling fn for each in
// order. firstLSN is the LSN the segment must start at (one past the
// covering snapshot); any discontinuity is treated as tampering. A missing
// file replays as empty — a crash between snapshot rename and segment
// creation legitimately leaves no segment.
//
// A torn tail ends replay without error (recorded in the info); if repair
// is true the file is truncated to its valid prefix so appends can resume.
// MAC or sequence violations return a *secmem.IntegrityError and replay no
// further records.
func Replay(path string, opt Options, firstLSN uint64, repair bool, fn func(Record) error) (ReplayInfo, error) {
	return replayRange(path, opt, firstLSN, firstLSN, repair, fn)
}

// ReplayRange decodes the segment at path exactly like Replay — the whole
// prefix is CRC-, MAC-, and sequence-validated starting at firstLSN — but
// only records with LSN >= fromLSN are delivered to fn. This is the
// replication cursor path: a replica whose durable watermark is mid-segment
// receives just the suffix it is missing, while the primary still refuses
// to serve from a tampered or spliced log. A torn tail ends delivery
// without error (recorded in the info; never repaired — the cursor read
// must not mutate the live segment the committer is appending to).
func ReplayRange(path string, opt Options, firstLSN, fromLSN uint64, fn func(Record) error) (ReplayInfo, error) {
	if fromLSN < firstLSN {
		fromLSN = firstLSN
	}
	return replayRange(path, opt, firstLSN, fromLSN, false, fn)
}

// ReplayTail is Replay restricted to records with LSN >= fromLSN: the
// whole segment prefix is still CRC-, MAC-, and sequence-validated from
// firstLSN, but only the suffix is delivered. Unlike ReplayRange it may
// repair a torn tail — this is the recovery path for delta checkpoints,
// where the segment starts at the base snapshot's watermark but the delta
// chain already covers everything below fromLSN.
func ReplayTail(path string, opt Options, firstLSN, fromLSN uint64, repair bool, fn func(Record) error) (ReplayInfo, error) {
	if fromLSN < firstLSN {
		fromLSN = firstLSN
	}
	return replayRange(path, opt, firstLSN, fromLSN, repair, fn)
}

func replayRange(path string, opt Options, firstLSN, fromLSN uint64, repair bool, fn func(Record) error) (ReplayInfo, error) {
	info := ReplayInfo{LastLSN: firstLSN - 1}
	k, err := deriveKeys(opt)
	if err != nil {
		return info, err
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return info, nil
	}
	if err != nil {
		return info, fmt.Errorf("wal: replay %s: %w", path, err)
	}
	next := firstLSN
	off := int64(0)
	torn := func(reason string) {
		info.TornTail = &TornTailError{Path: path, Offset: off, Reason: reason}
	}
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < frameHdrBytes {
			torn(fmt.Sprintf("%d trailing bytes, want a %d-byte frame header", len(rest), frameHdrBytes))
			break
		}
		n := binary.LittleEndian.Uint32(rest[0:])
		if n < recFixedBytes+macBytes || n > maxBody {
			torn(fmt.Sprintf("frame length %d outside [%d, %d]", n, recFixedBytes+macBytes, maxBody))
			break
		}
		if len(rest) < frameHdrBytes+int(n) {
			torn(fmt.Sprintf("frame body cut short: %d of %d bytes", len(rest)-frameHdrBytes, n))
			break
		}
		body := rest[frameHdrBytes : frameHdrBytes+int(n)]
		if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(rest[4:]); got != want {
			torn(fmt.Sprintf("frame CRC %#x, want %#x", got, want))
			break
		}
		rec, err := decodeBody(k, body, path, next)
		if err != nil {
			return info, err
		}
		if rec.LSN >= fromLSN {
			if err := fn(rec); err != nil {
				return info, err
			}
			info.Delivered++
		}
		info.Records++
		if rec.Kind == KindWrite {
			info.Writes++
		}
		info.LastLSN = rec.LSN
		next = rec.LSN + 1
		off += frameHdrBytes + int64(n)
	}
	info.ValidBytes = off
	if info.TornTail != nil && repair {
		if err := os.Truncate(path, off); err != nil {
			return info, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
		info.Truncated = true
	}
	return info, nil
}

// decodeBody authenticates and unseals one CRC-valid body. The CRC having
// matched, any failure here means deliberate modification, not a crash —
// so failures are *secmem.IntegrityError, the same fail-closed type the
// engine raises for tampered memory.
func decodeBody(k keys, body []byte, path string, wantLSN uint64) (Record, error) {
	macOff := len(body) - macBytes
	got := binary.LittleEndian.Uint64(body[macOff:])
	want := k.mac.Raw(body[:macOff])
	rec := Record{
		Kind:  body[0],
		LSN:   binary.LittleEndian.Uint64(body[1:]),
		Addr:  binary.LittleEndian.Uint64(body[9:]),
		Count: binary.LittleEndian.Uint64(body[17:]),
	}
	if !hmac.Equal(u64le(got), u64le(want)) {
		return Record{}, &secmem.IntegrityError{Level: -1, Index: rec.LSN,
			Reason: fmt.Sprintf("wal record MAC mismatch in %s (at-rest tampering)", path)}
	}
	if rec.LSN != wantLSN {
		return Record{}, &secmem.IntegrityError{Level: -1, Index: rec.LSN,
			Reason: fmt.Sprintf("wal record LSN %d in %s, want %d (spliced or replayed log)", rec.LSN, path, wantLSN)}
	}
	payload := body[recFixedBytes:macOff]
	switch rec.Kind {
	case KindWrite:
		if len(payload) != secmem.LineBytes {
			return Record{}, &secmem.IntegrityError{Level: -1, Index: rec.LSN,
				Reason: fmt.Sprintf("wal write record payload is %d bytes, want %d", len(payload), secmem.LineBytes)}
		}
		rec.Line = make([]byte, secmem.LineBytes)
		if err := k.cipher.XOR(rec.Line, payload, rec.LSN, 0); err != nil {
			return Record{}, fmt.Errorf("wal: unseal record %d: %w", rec.LSN, err)
		}
	case KindOverflow, KindRebase:
		if len(payload) != 0 {
			return Record{}, &secmem.IntegrityError{Level: -1, Index: rec.LSN,
				Reason: fmt.Sprintf("wal audit record carries %d payload bytes, want 0", len(payload))}
		}
	default:
		return Record{}, &secmem.IntegrityError{Level: -1, Index: rec.LSN,
			Reason: fmt.Sprintf("wal record kind %#x unknown", rec.Kind)}
	}
	return rec, nil
}

func u64le(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
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
