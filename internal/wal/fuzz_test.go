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
// a *FrameError or a *secmem.IntegrityError (a torn tail is not an error at
// all in a file); every record delivered re-seals to exactly the bytes it was
// read from; and cutting a valid stream short, which is what a crash does and
// needs no key to do, is never reported as tampering.
func FuzzWALDecode(f *testing.F) {
	for _, run := range loadGolden(f) {
		f.Add(run.segment(), run.first, uint32(0x1b1), uint16(WriteFrameBytes+AuditFrameBytes/2))
	}
	f.Add([]byte{}, uint64(1), uint32(0), uint16(0))
	f.Add(bytes.Repeat([]byte{0xff}, 300), ^uint64(0), ^uint32(0), uint16(77))
	codec, err := NewCodec(testOpts())
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "wal.fuzz")
	f.Fuzz(func(t *testing.T, raw []byte, firstLSN uint64, shape uint32, cut uint16) {
		// An LSN counts records from the store's first: it does not wrap, and
		// replay's "at or past the cursor" is not written as if it could.
		firstLSN = min(firstLSN, math.MaxUint64-6)
		checkDecoders(t, codec, path, raw, firstLSN, -1)

		// A valid stream of up to six records: two bits of shape pick each
		// kind (and end the stream early), raw supplies the payloads.
		var stream []byte
		var bounds []int // offsets at which a frame ends
		var want []Record
	build:
		for i := 0; i < 6; i++ {
			rec := Record{LSN: firstLSN + uint64(i)}
			switch shape >> (2 * i) & 3 {
			case 0:
				rec.Kind, rec.Addr, rec.Line = KindWrite, uint64(i)*secmem.LineBytes, make([]byte, secmem.LineBytes)
				if len(raw) > 0 {
					copy(rec.Line, raw[i*7%len(raw):])
				}
			case 1:
				rec.Kind, rec.Count = KindOverflow, uint64(cut)+uint64(i)
			case 2:
				rec.Kind, rec.Count = KindRebase, uint64(shape)
			default:
				break build
			}
			var err error
			if stream, err = codec.AppendRecord(stream, rec); err != nil {
				t.Fatal(err)
			}
			bounds = append(bounds, len(stream))
			want = append(want, rec)
		}
		var got []Record
		if n, err := codec.DecodeAll(stream, firstLSN, func(r Record) error { got = append(got, r); return nil }); err != nil || n != len(want) {
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
		checkDecoders(t, codec, path, stream[:at], firstLSN, whole)
	})
}

// checkDecoders runs both decoders over p. whole is -1 for arbitrary bytes;
// otherwise p is a valid stream cut short with that many frames intact, and
// both must deliver exactly those and call the rest damage, not tampering.
func checkDecoders(t *testing.T, codec *Codec, path string, p []byte, firstLSN uint64, whole int) {
	t.Helper()
	var resealed []byte
	reseal := func(r Record) error {
		var err error
		resealed, err = codec.AppendRecord(resealed, r)
		return err
	}
	var fe *FrameError
	var ie *secmem.IntegrityError
	n, err := codec.DecodeAll(p, firstLSN, reseal)
	if err != nil && !errors.As(err, &fe) && !errors.As(err, &ie) {
		t.Fatalf("DecodeAll: error of no declared type: %v", err)
	}
	if !bytes.HasPrefix(p, resealed) {
		t.Fatalf("DecodeAll delivered %d records that do not re-seal to the bytes they were read from", n)
	}
	if whole >= 0 {
		cutMidFrame := len(resealed) != len(p)
		if n != whole || cutMidFrame != errors.As(err, &fe) || errors.As(err, &ie) {
			t.Fatalf("DecodeAll of a stream cut at %d with %d whole frames: %d records, %v", len(p), whole, n, err)
		}
	}

	if err := os.WriteFile(path, p, 0o644); err != nil {
		t.Fatal(err)
	}
	resealed = resealed[:0]
	info, err := Replay(path, testOpts(), firstLSN, false, reseal)
	if err != nil && !errors.As(err, &ie) {
		t.Fatalf("Replay: error of no declared type: %v", err)
	}
	if !bytes.HasPrefix(p, resealed) || (err == nil && info.ValidBytes != int64(len(resealed))) {
		t.Fatalf("Replay delivered %d records that do not re-seal to its %d valid bytes", info.Delivered, info.ValidBytes)
	}
	if whole >= 0 {
		cutMidFrame := len(resealed) != len(p)
		if err != nil || info.Records != whole || cutMidFrame != (info.TornTail != nil) {
			t.Fatalf("Replay of a stream cut at %d with %d whole frames: %+v, %v", len(p), whole, info, err)
		}
	}
}
