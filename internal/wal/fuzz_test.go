package wal

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/securemem/morphtree/internal/secmem"
)

// FuzzWALDecode feeds both decoders — Codec.DecodeAll, which a replica runs
// on bytes from the network, and file replay, which recovery runs on bytes
// from disk — first the input as it is and then a stream sealed from it and
// cut at an offset it chooses. Whatever the bytes: no panic; the error is nil,
// a *FrameError, a *secmem.IntegrityError or a *secmem.VersionError (a torn
// tail is not an error at all in a file); every record delivered re-seals to
// exactly the bytes it was read from; and cutting a valid stream short, which
// is what a crash does and needs no key to do, is never reported as
// tampering. File replay starts past a covered prefix of 0 to 6 records
// (shape's bits 12 and up), which it counts and never reads. The seeds are
// both fixtures' segments, this generation's and the one before, and one
// sealed stream replayed from past its third record.
func FuzzWALDecode(f *testing.F) {
	for _, run := range loadGolden(f, oldGenFrames) {
		f.Add(run.segment(), run.first, uint32(0x1b1), uint16(WriteFrameBytes+WriteFrameBytes/2))
	}
	f.Add([]byte{}, uint64(1), uint32(0), uint16(0))
	f.Add(bytes.Repeat([]byte{0xff}, 300), ^uint64(0), ^uint32(0), uint16(77))
	for _, run := range loadGolden(f, goldenFrames) {
		f.Add(run.segment(), run.first, uint32(0x1b1), uint16(2*WriteFrameBytes+11))
	}
	f.Add([]byte("lines"), uint64(9), uint32(3<<12|0x124), uint16(5*WriteFrameBytes-3))
	codec, err := NewCodec(testOpts())
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "wal.fuzz")
	f.Fuzz(func(t *testing.T, raw []byte, firstLSN uint64, shape uint32, cut uint16) {
		// An LSN counts records from the store's first: it does not wrap, and
		// replay's "at or past the cursor" is not written as if it could.
		firstLSN = min(firstLSN, math.MaxUint64-6)
		covered := int(shape>>12) % 7
		checkDecoders(t, codec, path, raw, firstLSN, covered, -1)

		// A valid stream of up to six records: two bits of shape pick each
		// one's address (or end the stream early), raw supplies the lines.
		var stream []byte
		var bounds []int // offsets at which a frame ends
		var want []Record
	build:
		for i := 0; i < 6; i++ {
			pick := shape >> (2 * i) & 3
			if pick == 3 {
				break build
			}
			rec := Record{Kind: KindWrite, LSN: firstLSN + uint64(i), Line: make([]byte, secmem.LineBytes)}
			rec.Addr = [3]uint64{uint64(i) * secmem.LineBytes, uint64(cut) * secmem.LineBytes, uint64(shape)}[pick]
			if len(raw) > 0 {
				copy(rec.Line, raw[i*7%len(raw):])
			}
			var err error
			if stream, err = codec.AppendRecord(stream, rec); err != nil {
				t.Fatal(err)
			}
			bounds = append(bounds, len(stream))
			want = append(want, rec)
		}
		var got []Record
		if n, err := codec.DecodeAll(stream, firstLSN, func(r Record) error { got = append(got, kept(r)); return nil }); err != nil || n != len(want) {
			t.Fatalf("a stream of %d sealed records decoded to %d: %v", len(want), n, err)
		}
		for i := range want {
			if !sameRecord(got[i], want[i]) {
				t.Fatalf("record %d: sealed %+v, decoded %+v", i, want[i], got[i])
			}
		}
		at := int(cut) % (len(stream) + 1)
		whole := 0
		for _, b := range bounds {
			if b <= at {
				whole++
			}
		}
		checkDecoders(t, codec, path, stream[:at], firstLSN, covered, whole)
	})
}

// checkDecoders runs both decoders over p, file replay from past covered
// records. whole is -1 for arbitrary bytes; otherwise p is a valid stream cut
// short with that many frames intact, and both must deliver exactly those
// (replay, those past the covered ones) and call the rest damage, not
// tampering.
func checkDecoders(t *testing.T, codec *Codec, path string, p []byte, firstLSN uint64, covered, whole int) {
	t.Helper()
	var resealed []byte
	reseal := func(r Record) error {
		var err error
		resealed, err = codec.AppendRecord(resealed, r)
		return err
	}
	var fe *FrameError
	var ie *secmem.IntegrityError
	var ve *secmem.VersionError
	var se *ShortSegmentError
	n, err := codec.DecodeAll(p, firstLSN, reseal)
	if err != nil && !errors.As(err, &fe) && !errors.As(err, &ie) && !errors.As(err, &ve) {
		t.Fatalf("DecodeAll: error of no declared type: %v", err)
	}
	if !bytes.HasPrefix(p, resealed) {
		t.Fatalf("DecodeAll delivered %d records that do not re-seal to the bytes they were read from", n)
	}
	if whole >= 0 {
		cutMidFrame := len(resealed) != len(p)
		if n != whole || cutMidFrame != errors.As(err, &fe) || errors.As(err, &ie) || errors.As(err, &ve) {
			t.Fatalf("DecodeAll of a stream cut at %d with %d whole frames: %d records, %v", len(p), whole, n, err)
		}
	}

	if err := os.WriteFile(path, p, 0o644); err != nil {
		t.Fatal(err)
	}
	resealed = resealed[:0]
	info, err := ReplayTail(path, testOpts(), firstLSN, firstLSN+uint64(covered), reseal)
	if err != nil && !errors.As(err, &ie) && !errors.As(err, &ve) && !errors.As(err, &se) {
		t.Fatalf("ReplayTail: error of no declared type: %v", err)
	}
	short := covered*WriteFrameBytes > len(p)
	if short != errors.As(err, &se) {
		t.Fatalf("ReplayTail of %d bytes past %d covered records: %+v, %v", len(p), covered, info, err)
	}
	if short {
		if info.Records != len(p)/WriteFrameBytes || len(resealed) != 0 || info.BytesRead != 0 {
			t.Fatalf("ReplayTail of %d bytes, short of its %d covered records: %+v, %d bytes delivered", len(p), covered, info, len(resealed))
		}
		return
	}
	past := p[covered*WriteFrameBytes:]
	valid := int64(len(p))
	if info.TornTail != nil {
		valid = info.TornTail.Offset
	}
	if !bytes.HasPrefix(past, resealed) || info.BytesRead != int64(len(past)) ||
		(err == nil && valid != int64(covered*WriteFrameBytes+len(resealed))) {
		t.Fatalf("ReplayTail delivered %d records that do not re-seal to its %d valid bytes", info.Authenticated, valid)
	}
	if whole >= 0 {
		cutMidFrame := len(resealed) != len(past)
		if err != nil || info.Records != whole || info.Authenticated != whole-covered || cutMidFrame != (info.TornTail != nil) {
			t.Fatalf("ReplayTail of a stream cut at %d with %d whole frames, %d covered: %+v, %v", len(p), whole, covered, info, err)
		}
	}
}
