package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/securemem/morphtree/internal/secmem"
)

var testKey = []byte("0123456789abcdef")

func testOpts() Options { return Options{Key: testKey} }

func line(seed byte) []byte {
	l := make([]byte, secmem.LineBytes)
	for i := range l {
		l[i] = seed + byte(i)
	}
	return l
}

// writeLog writes n records (LSN 1..n), returning the path.
func writeLog(t *testing.T, dir string, n int) string {
	t.Helper()
	path := filepath.Join(dir, "wal.test")
	l, err := Create(path, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	lsn := uint64(0)
	for i := 0; i < n; i++ {
		lsn++
		if err := l.Append(Record{Kind: KindWrite, LSN: lsn, Addr: uint64(i) * 64, Line: line(byte(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	path := writeLog(t, t.TempDir(), 5)
	var recs []Record
	info, err := ReplayTail(path, testOpts(), 1, 1, func(r Record) error {
		recs = append(recs, kept(r))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 5 || info.LastLSN != 5 || info.TornTail != nil {
		t.Fatalf("info = %+v, want 5 records / lastLSN 5 / no torn tail", info)
	}
	for i := 0; i < 5; i++ {
		r := recs[i]
		if r.Kind != KindWrite || r.Addr != uint64(i)*64 || !bytes.Equal(r.Line, line(byte(i))) {
			t.Fatalf("record %d = %+v, want write of line(%d) at %d", i, r, i, i*64)
		}
	}
}

func TestLinesAreSealedAtRest(t *testing.T) {
	path := writeLog(t, t.TempDir(), 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if bytes.Contains(data, line(byte(i))) {
			t.Fatalf("plaintext line %d appears verbatim in the WAL file", i)
		}
	}
}

func TestWriteFrameBytesMatchesDisk(t *testing.T) {
	dir := t.TempDir()
	path := writeLog(t, dir, 4)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if WriteFrameBytes != 97 || fi.Size() != 4*WriteFrameBytes {
		t.Fatalf("4 write records occupy %d bytes, want 4 frames of 97 (WriteFrameBytes = %d)", fi.Size(), WriteFrameBytes)
	}
}

// TestTornTailEveryOffset truncates a log at every possible byte offset and
// checks replay recovers exactly the whole frames before the cut, reports a
// torn tail at the end of them for partial cuts, leaves the file as it found
// it, and never errors or panics.
func TestTornTailEveryOffset(t *testing.T) {
	const n = 4
	master := writeLog(t, t.TempDir(), n)
	data, err := os.ReadFile(master)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, "wal.cut")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := 0
		info, err := ReplayTail(path, testOpts(), 1, 1, func(Record) error {
			got++
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: replay error %v, want torn-tail tolerance", cut, err)
		}
		wantWhole := cut / WriteFrameBytes
		if got != wantWhole {
			t.Fatalf("cut %d: replayed %d writes, want %d", cut, got, wantWhole)
		}
		wantTorn := cut%WriteFrameBytes != 0
		if (info.TornTail != nil) != wantTorn {
			t.Fatalf("cut %d: torn tail %v, want torn=%v", cut, info.TornTail, wantTorn)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(cut) {
			t.Fatalf("cut %d: replay left the file at %v bytes (%v)", cut, fi.Size(), err)
		}
		if wantTorn {
			if info.TornTail.Offset != int64(wantWhole)*WriteFrameBytes {
				t.Fatalf("cut %d: torn tail at %d, want %d", cut, info.TornTail.Offset, wantWhole*WriteFrameBytes)
			}
			// Cut back to the offset, the log must replay cleanly and
			// accept appends.
			if err := os.Truncate(path, info.TornTail.Offset); err != nil {
				t.Fatal(err)
			}
			l, err := Open(path, testOpts())
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(Record{Kind: KindWrite, LSN: uint64(wantWhole) + 1, Addr: 0, Line: line(0xAA)}); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			info2, err := ReplayTail(path, testOpts(), 1, 1, func(Record) error { return nil })
			if err != nil || info2.TornTail != nil || info2.Records != wantWhole+1 {
				t.Fatalf("cut %d: after truncation+append replay = %+v, %v", cut, info2, err)
			}
		}
	}
}

func TestTamperingIsIntegrityErrorNotTornTail(t *testing.T) {
	path := writeLog(t, t.TempDir(), 4)
	rewriteWithCRCFix(t, path, 1, func(body []byte) { body[recFixedBytes+5] ^= 0x40 }) // one payload bit
	applied := 0
	_, err := ReplayTail(path, testOpts(), 1, 1, func(Record) error { applied++; return nil })
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("replay of CRC-consistent tampered log returned %v, want *secmem.IntegrityError", err)
	}
	if applied != 1 {
		t.Fatalf("replay applied %d records past the tampered frame, want 1 before it", applied)
	}
}

func TestWrongKeyIsIntegrityError(t *testing.T) {
	path := writeLog(t, t.TempDir(), 2)
	_, err := ReplayTail(path, Options{Key: []byte("fedcba9876543210")}, 1, 1, func(Record) error { return nil })
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("replay under wrong key returned %v, want *secmem.IntegrityError", err)
	}
}

func TestLSNDiscontinuityIsIntegrityError(t *testing.T) {
	dir := t.TempDir()
	path := writeLog(t, dir, 3)
	// Drop the middle frame and splice the file back together: every
	// frame still CRCs and MACs, but the sequence skips an LSN.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spliced := append(append([]byte{}, data[:WriteFrameBytes]...), data[2*WriteFrameBytes:]...)
	if err := os.WriteFile(path, spliced, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReplayTail(path, testOpts(), 1, 1, func(Record) error { return nil })
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("replay of spliced log returned %v, want *secmem.IntegrityError", err)
	}
}

func TestMissingFileReplaysEmpty(t *testing.T) {
	info, err := ReplayTail(filepath.Join(t.TempDir(), "absent"), testOpts(), 7, 7, func(Record) error {
		t.Fatal("fn called for a missing file")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 0 || info.LastLSN != 6 || info.TornTail != nil {
		t.Fatalf("info = %+v, want empty replay with LastLSN 6", info)
	}
}

func TestFirstLSNMismatchRejectsForeignSegment(t *testing.T) {
	// A segment legitimately starting at LSN 1 must not be accepted where
	// LSN 100 is expected (e.g. an old segment renamed into place).
	path := writeLog(t, t.TempDir(), 2)
	_, err := ReplayTail(path, testOpts(), 100, 100, func(Record) error { return nil })
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("replay with firstLSN 100 returned %v, want *secmem.IntegrityError", err)
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	path := writeLog(t, t.TempDir(), 1)
	if _, err := Create(path, testOpts()); err == nil {
		t.Fatal("Create over an existing segment succeeded, want error")
	}
}

func TestAppendRejectsBadRecords(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "wal.bad"), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if err := l.Append(Record{Kind: KindWrite, LSN: 1, Line: make([]byte, 12)}); err == nil {
		t.Fatal("short line accepted")
	}
	for _, kind := range []byte{0x01, 0x02, 0x03, 0x7F} {
		if err := l.Append(Record{Kind: kind, LSN: 1, Line: line(0)}); err == nil {
			t.Fatalf("kind %#x accepted", kind)
		}
	}
	if n := l.bw.Buffered(); n != 0 {
		t.Fatalf("rejected records left %d bytes in the log's buffer", n)
	}
}

// rewriteWithCRCFix applies edit to frame k's body and recomputes the CRC,
// modeling an adversary (not a crash) editing the file.
func rewriteWithCRCFix(t *testing.T, path string, frame int, edit func(body []byte)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := frame * WriteFrameBytes
	body := data[off+frameHdrBytes : off+WriteFrameBytes]
	edit(body)
	binary.LittleEndian.PutUint32(data[off+4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A current frame whose kind byte is rewritten to the generation before's
// write, its CRC recomputed, is refused by its kind before its MAC is
// checked, so it reads as another version rather than as tampering — the
// same exception as an edited container header — and is never applied; the
// frames before it are.
func TestRewrittenKindIsRefusedUnapplied(t *testing.T) {
	path := writeLog(t, t.TempDir(), 4)
	rewriteWithCRCFix(t, path, 2, func(body []byte) { body[0] = 0x01 })
	var applied []uint64
	_, err := ReplayTail(path, testOpts(), 1, 1, func(r Record) error { applied = append(applied, r.LSN); return nil })
	var ve *secmem.VersionError
	var ie *secmem.IntegrityError
	if !errors.As(err, &ve) || ve.Version != 0x01 || errors.As(err, &ie) {
		t.Fatalf("replay of a frame rewritten to kind 0x01 returned %v, want a *secmem.VersionError", err)
	}
	if len(applied) != 2 {
		t.Fatalf("replay applied LSNs %v, want the two before the rewritten frame", applied)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := NewCodec(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := codec.DecodeAll(data, 1, func(Record) error { return nil }); n != 2 || !errors.As(err, &ve) {
		t.Fatalf("DecodeAll of the rewritten segment: %d records, %v; want 2 and a *secmem.VersionError", n, err)
	}
}
