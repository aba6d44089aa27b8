package wal

import (
	"errors"
	"io"
	"os"
	"slices"
	"testing"

	"github.com/securemem/morphtree/internal/racedetect"
	"github.com/securemem/morphtree/internal/secmem"
)

// kept is r with a Line of its own, for a callback that keeps a record past
// its return.
func kept(r Record) Record {
	r.Line = slices.Clone(r.Line)
	return r
}

// readRange is ReadRange collecting the records it reads.
func readRange(path string, opt Options, firstLSN, from uint64, n int) ([]Record, error) {
	var recs []Record
	err := ReadRange(path, opt, firstLSN, from, n, func(r Record) error {
		recs = append(recs, kept(r))
		return nil
	})
	return recs, err
}

// TestReadRangeEveryCursor reads a segment from every cursor, every count
// that fits, and wants exactly those records with their lines; a range that
// runs past the segment's end, or starts before its first record, is an
// error, not a short answer.
func TestReadRangeEveryCursor(t *testing.T) {
	const n = 6
	path := writeLog(t, t.TempDir(), n) // writeLog seals line(i) at LSN i+1
	for from := uint64(1); from <= n+1; from++ {
		for count := 0; from+uint64(count) <= n+1; count++ {
			recs, err := readRange(path, testOpts(), 1, from, count)
			if err != nil || len(recs) != count {
				t.Fatalf("from=%d count=%d: %d records, %v", from, count, len(recs), err)
			}
			for i, r := range recs {
				lsn := from + uint64(i)
				if want := (Record{Kind: KindWrite, LSN: lsn, Addr: (lsn - 1) * 64, Line: line(byte(lsn - 1))}); !sameRecord(r, want) {
					t.Fatalf("from=%d count=%d: record %d = %+v, want %+v", from, count, i, r, want)
				}
			}
		}
		if _, err := readRange(path, testOpts(), 1, from, n+2-int(from)); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("from=%d: a range one past the end returned %v, want EOF", from, err)
		}
	}
	if _, err := readRange(path, testOpts(), 2, 1, 1); err == nil {
		t.Fatal("a range before the segment's first LSN was read")
	}
}

// A tampered frame inside the range is an *secmem.IntegrityError, a torn
// one a *FrameError: the records the cursor asks for are durable, so no
// damage to them is a tail to tolerate. A torn tail past the range is never
// read.
func TestReadRangeDamageIsAnError(t *testing.T) {
	path := writeLog(t, t.TempDir(), 4)
	rewriteWithCRCFix(t, path, 2, func(body []byte) { body[recFixedBytes] ^= 1 })
	var ie *secmem.IntegrityError
	if _, err := readRange(path, testOpts(), 1, 2, 2); !errors.As(err, &ie) {
		t.Fatalf("a range over a tampered frame returned %v, want a *secmem.IntegrityError", err)
	}
	if recs, err := readRange(path, testOpts(), 1, 4, 1); err != nil || len(recs) != 1 {
		t.Fatalf("a range past the tampered frame: %d records, %v", len(recs), err)
	}

	path = writeLog(t, t.TempDir(), 4)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[WriteFrameBytes+frameHdrBytes+3] ^= 1 // record 2's CRC no longer matches
	if err := os.WriteFile(path, append(data, 0xAA, 0xBB), 0o644); err != nil {
		t.Fatal(err)
	}
	var fe *FrameError
	if _, err := readRange(path, testOpts(), 1, 1, 3); !errors.As(err, &fe) || fe.Offset != WriteFrameBytes {
		t.Fatalf("a range over a corrupt frame returned %v, want a *FrameError at its offset", err)
	}
	if recs, err := readRange(path, testOpts(), 1, 3, 2); err != nil || len(recs) != 2 {
		t.Fatalf("a range between the corrupt frame and the torn tail: %d records, %v", len(recs), err)
	}
}

// TestCodecRoundTrip seals a batch with Codec.AppendRecord and decodes it
// with DecodeAll, checking records and payloads survive.
func TestCodecRoundTrip(t *testing.T) {
	c, err := NewCodec(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindWrite, LSN: 7, Addr: 128, Line: line(9)},
		{Kind: KindWrite, LSN: 8, Addr: 64, Line: line(3)},
	}
	var batch []byte
	for _, r := range recs {
		if batch, err = c.AppendRecord(batch, r); err != nil {
			t.Fatal(err)
		}
	}
	var got []Record
	n, err := c.DecodeAll(batch, 7, func(r Record) error {
		got = append(got, kept(r))
		return nil
	})
	if err != nil || n != len(recs) {
		t.Fatalf("DecodeAll = %d, %v; want %d, nil", n, err, len(recs))
	}
	for i, r := range got {
		if !sameRecord(r, recs[i]) {
			t.Fatalf("record %d = %+v, want %+v", i, r, recs[i])
		}
	}
}

// TestCodecWrongKeyFailsClosed: a batch sealed under one key must not
// decode under another (this is what makes fencing-epoch-bound replication
// keys reject a deposed primary's stream).
func TestCodecWrongKeyFailsClosed(t *testing.T) {
	seal, err := NewCodec(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := seal.AppendRecord(nil, Record{Kind: KindWrite, LSN: 1, Addr: 0, Line: line(1)})
	if err != nil {
		t.Fatal(err)
	}
	open, err := NewCodec(Options{Key: []byte("another-epoch-key")})
	if err != nil {
		t.Fatal(err)
	}
	_, err = open.DecodeAll(batch, 1, func(Record) error { return nil })
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want IntegrityError", err)
	}
}

// TestCodecTruncatedBatchErrors: unlike file replay, a cut-short batch is an
// error, not a tolerated torn tail.
func TestCodecTruncatedBatchErrors(t *testing.T) {
	c, err := NewCodec(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.AppendRecord(nil, Record{Kind: KindWrite, LSN: 1, Addr: 0, Line: line(1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, frameHdrBytes - 1, frameHdrBytes + 3, len(batch) - 1} {
		if _, err := c.DecodeAll(batch[:cut], 1, func(Record) error { return nil }); err == nil {
			t.Fatalf("cut=%d: truncated batch decoded without error", cut)
		}
	}
}

// TestCodecLSNGapFailsClosed: contiguity is enforced on the wire exactly as
// on disk.
func TestCodecLSNGapFailsClosed(t *testing.T) {
	c, err := NewCodec(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.AppendRecord(nil, Record{Kind: KindWrite, LSN: 5, Addr: 0, Line: line(1)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.DecodeAll(batch, 4, func(Record) error { return nil })
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want IntegrityError for LSN gap", err)
	}
}

// TestDecodersAllocateByTheFrame: ReplayTail, ReadRange and DecodeAll read a
// frame at a time into one buffer and unseal every line into one scratch, so
// what they allocate is the same over 10 records as over 1 000.
func TestDecodersAllocateByTheFrame(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	codec, err := NewCodec(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	count := func(n int) (replay, readRange, decode float64) {
		path := writeLog(t, t.TempDir(), n)
		batch, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		fn := func(Record) error { seen++; return nil }
		replay = testing.AllocsPerRun(10, func() {
			if _, err := ReplayTail(path, testOpts(), 1, 1, fn); err != nil {
				t.Fatal(err)
			}
		})
		readRange = testing.AllocsPerRun(10, func() {
			if err := ReadRange(path, testOpts(), 1, 1, n, fn); err != nil {
				t.Fatal(err)
			}
		})
		decode = testing.AllocsPerRun(10, func() {
			if _, err := codec.DecodeAll(batch, 1, fn); err != nil {
				t.Fatal(err)
			}
		})
		if want := 3 * 11 * n; seen != want {
			t.Fatalf("the decoders saw %d records of %d, want %d", seen, n, want)
		}
		return replay, readRange, decode
	}
	r10, rr10, d10 := count(10)
	r1k, rr1k, d1k := count(1000)
	if r10 != r1k || rr10 != rr1k || d10 != d1k {
		t.Fatalf("allocations over 10 records and over 1 000: ReplayTail %v and %v, ReadRange %v and %v, DecodeAll %v and %v",
			r10, r1k, rr10, rr1k, d10, d1k)
	}
	t.Logf("allocations a call: ReplayTail %v, ReadRange %v, DecodeAll %v", r10, rr10, d10)
}
