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

// writeLog writes n KindWrite records (LSN 1..n) plus, if audits is true, a
// trailing audit pair, returning the path.
func writeLog(t *testing.T, dir string, n int, audits bool) string {
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
	if audits {
		lsn++
		if err := l.Append(Record{Kind: KindOverflow, LSN: lsn, Count: 3}); err != nil {
			t.Fatal(err)
		}
		lsn++
		if err := l.Append(Record{Kind: KindRebase, LSN: lsn, Count: 7}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	path := writeLog(t, t.TempDir(), 5, true)
	var recs []Record
	info, err := Replay(path, testOpts(), 1, false, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 7 || info.Writes != 5 || info.LastLSN != 7 || info.TornTail != nil {
		t.Fatalf("info = %+v, want 7 records / 5 writes / lastLSN 7 / no torn tail", info)
	}
	for i := 0; i < 5; i++ {
		r := recs[i]
		if r.Kind != KindWrite || r.Addr != uint64(i)*64 || !bytes.Equal(r.Line, line(byte(i))) {
			t.Fatalf("record %d = %+v, want write of line(%d) at %d", i, r, i, i*64)
		}
	}
	if recs[5].Kind != KindOverflow || recs[5].Count != 3 {
		t.Fatalf("audit record = %+v, want overflow count 3", recs[5])
	}
	if recs[6].Kind != KindRebase || recs[6].Count != 7 {
		t.Fatalf("audit record = %+v, want rebase count 7", recs[6])
	}
}

func TestLinesAreSealedAtRest(t *testing.T) {
	path := writeLog(t, t.TempDir(), 3, false)
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
	path := writeLog(t, dir, 4, false)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 4*WriteFrameBytes {
		t.Fatalf("4 write records occupy %d bytes, want %d", fi.Size(), 4*WriteFrameBytes)
	}
	path = writeLog(t, t.TempDir(), 0, true)
	fi, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 2*AuditFrameBytes {
		t.Fatalf("2 audit records occupy %d bytes, want %d", fi.Size(), 2*AuditFrameBytes)
	}
}

// TestTornTailEveryOffset truncates a log at every possible byte offset and
// checks replay recovers exactly the whole frames before the cut, reports a
// torn tail for partial cuts, and never errors or panics.
func TestTornTailEveryOffset(t *testing.T) {
	const n = 4
	master := writeLog(t, t.TempDir(), n, false)
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
		info, err := Replay(path, testOpts(), 1, true, func(r Record) error {
			if r.Kind == KindWrite {
				got++
			}
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
		if wantTorn {
			if !info.Truncated {
				t.Fatalf("cut %d: repair did not truncate", cut)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != int64(wantWhole)*WriteFrameBytes {
				t.Fatalf("cut %d: repaired size %d, want %d", cut, fi.Size(), wantWhole*WriteFrameBytes)
			}
			// A repaired log must replay cleanly and accept appends.
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
			info2, err := Replay(path, testOpts(), 1, false, func(Record) error { return nil })
			if err != nil || info2.TornTail != nil || info2.Writes != wantWhole+1 {
				t.Fatalf("cut %d: after repair+append replay = %+v, %v", cut, info2, err)
			}
		}
	}
}

// flipWithCRCFix flips one payload byte of frame k and recomputes the CRC,
// modeling an adversary (not a crash) editing the file.
func flipWithCRCFix(t *testing.T, path string, frame int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := frame * WriteFrameBytes
	body := data[off+frameHdrBytes : off+WriteFrameBytes]
	body[recFixedBytes+5] ^= 0x40
	binary.LittleEndian.PutUint32(data[off+4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTamperingIsIntegrityErrorNotTornTail(t *testing.T) {
	path := writeLog(t, t.TempDir(), 4, false)
	flipWithCRCFix(t, path, 1)
	applied := 0
	_, err := Replay(path, testOpts(), 1, false, func(Record) error { applied++; return nil })
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("replay of CRC-consistent tampered log returned %v, want *secmem.IntegrityError", err)
	}
	if applied != 1 {
		t.Fatalf("replay applied %d records past the tampered frame, want 1 before it", applied)
	}
}

func TestWrongKeyIsIntegrityError(t *testing.T) {
	path := writeLog(t, t.TempDir(), 2, false)
	_, err := Replay(path, Options{Key: []byte("fedcba9876543210")}, 1, false, func(Record) error { return nil })
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("replay under wrong key returned %v, want *secmem.IntegrityError", err)
	}
}

func TestLSNDiscontinuityIsIntegrityError(t *testing.T) {
	dir := t.TempDir()
	path := writeLog(t, dir, 3, false)
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
	_, err = Replay(path, testOpts(), 1, false, func(Record) error { return nil })
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("replay of spliced log returned %v, want *secmem.IntegrityError", err)
	}
}

func TestMissingFileReplaysEmpty(t *testing.T) {
	info, err := Replay(filepath.Join(t.TempDir(), "absent"), testOpts(), 7, true, func(Record) error {
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
	path := writeLog(t, t.TempDir(), 2, false)
	_, err := Replay(path, testOpts(), 100, false, func(Record) error { return nil })
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("replay with firstLSN 100 returned %v, want *secmem.IntegrityError", err)
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	path := writeLog(t, t.TempDir(), 1, false)
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
	if err := l.Append(Record{Kind: 0x7F, LSN: 1}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if n := l.bw.Buffered(); n != 0 {
		t.Fatalf("rejected records left %d bytes in the log's buffer", n)
	}
}
