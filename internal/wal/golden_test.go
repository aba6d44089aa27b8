package wal

import (
	"bufio"
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/securemem/morphtree/internal/aesctr"
	"github.com/securemem/morphtree/internal/racedetect"
	"github.com/securemem/morphtree/internal/secmem"
)

// Two fixtures hold WAL frames, one LSN-contiguous run of rows per key, so
// that the frames of a key concatenated in file order are a segment:
//
//   - testdata/golden_cw_frames.jsonl holds frames of this generation, writes
//     sealed by the line MAC (testdata/cwgen.go.txt says how): every segment
//     on disk and every batch a replica sends or accepts is made of these
//     bytes, so this sealer must write them and this decoder must read them.
//   - testdata/golden_frames.jsonl holds frames of all three kinds of the
//     generation before, sealed by HMAC-SHA256, as commit 78bb01b wrote them
//     (testdata/goldengen.go.txt): every reader refuses them with a
//     *secmem.VersionError, never an *secmem.IntegrityError.
type goldenFrame struct {
	Key   string `json:"key"`
	Kind  byte   `json:"kind"`
	LSN   uint64 `json:"lsn"`
	Addr  uint64 `json:"addr"`
	Line  string `json:"line"`
	Frame string `json:"frame"`
}

// goldenRun is one key's rows: the records, and their frames end to end.
type goldenRun struct {
	key     []byte
	first   uint64
	records []Record
	frames  [][]byte
}

func (g *goldenRun) segment() []byte { return bytes.Join(g.frames, nil) }

func loadGolden(tb testing.TB, path string) []*goldenRun {
	tb.Helper()
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	var runs []*goldenRun
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var g goldenFrame
		if err := json.Unmarshal(sc.Bytes(), &g); err != nil {
			tb.Fatal(err)
		}
		key := unhex(g.Key)
		if len(runs) == 0 || !bytes.Equal(runs[len(runs)-1].key, key) {
			runs = append(runs, &goldenRun{key: key, first: g.LSN})
		}
		run := runs[len(runs)-1]
		run.records = append(run.records, Record{Kind: g.Kind, LSN: g.LSN, Addr: g.Addr, Line: unhex(g.Line)})
		run.frames = append(run.frames, unhex(g.Frame))
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return runs
}

const (
	goldenFrames = "testdata/golden_cw_frames.jsonl"
	oldGenFrames = "testdata/golden_frames.jsonl"
)

func sameRecord(a, b Record) bool {
	return a.Kind == b.Kind && a.LSN == b.LSN && a.Addr == b.Addr && bytes.Equal(a.Line, b.Line)
}

func TestGoldenFrames(t *testing.T) {
	for _, run := range loadGolden(t, goldenFrames) {
		codec, err := NewCodec(Options{Key: run.key})
		if err != nil {
			t.Fatal(err)
		}
		// The sealer writes the fixture's bytes, alone and appended to a
		// batch, and through a Log onto disk.
		var batch []byte
		for i, rec := range run.records {
			frame, err := codec.AppendRecord(nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, run.frames[i]) {
				t.Errorf("%d-byte key, LSN %d: sealed\n%x\ngolden\n%x", len(run.key), rec.LSN, frame, run.frames[i])
			}
			if batch, err = codec.AppendRecord(batch, rec); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(batch, run.segment()) {
			t.Errorf("%d-byte key: the batch differs from the golden frames end to end", len(run.key))
		}
		path := filepath.Join(t.TempDir(), "wal.golden")
		l, err := Create(path, Options{Key: run.key})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range run.records {
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, run.segment()) {
			t.Errorf("%d-byte key: the segment Log wrote differs from the golden frames (read error %v)", len(run.key), err)
		}

		// The decoder reads the fixture's bytes, as a batch, as a file and
		// at every cursor of the file.
		var got []Record
		keep := func(r Record) error { got = append(got, kept(r)); return nil }
		if n, err := codec.DecodeAll(run.segment(), run.first, keep); err != nil || n != len(run.records) {
			t.Fatalf("%d-byte key: DecodeAll of the golden frames: %d records, %v", len(run.key), n, err)
		}
		info, err := ReplayTail(path, Options{Key: run.key}, run.first, run.first, keep)
		if err != nil || info.TornTail != nil || info.Records != len(run.records) {
			t.Fatalf("%d-byte key: ReplayTail of the golden frames: %+v, %v", len(run.key), info, err)
		}
		for i, r := range got {
			if want := run.records[i%len(run.records)]; !sameRecord(r, want) {
				t.Errorf("%d-byte key: decoded %+v, golden record %+v", len(run.key), r, want)
			}
		}
		last, err := readRange(path, Options{Key: run.key}, run.first, run.first+5, 1)
		if err != nil || len(last) != 1 || !sameRecord(last[0], run.records[5]) {
			t.Fatalf("%d-byte key: ReadRange of the sixth golden frame: %+v, %v", len(run.key), last, err)
		}
	}
}

// TestReplayTailFromACoveredPrefix replays each golden segment from a
// covered prefix of its records, as recovery does past a delta chain: the
// prefix is counted from the file's size and never read, so a tampered
// covered frame replays cleanly (DESIGN.md §10 says why that is sound), while
// a tampered first uncovered frame is tampering, a torn tail past the prefix
// a torn tail, and a file that ends inside the prefix, whole or mid-frame, a
// *ShortSegmentError.
func TestReplayTailFromACoveredPrefix(t *testing.T) {
	flip := func(frame int) func([]byte) []byte {
		return func(seg []byte) []byte {
			off := frame * WriteFrameBytes
			body := seg[off+frameHdrBytes : off+WriteFrameBytes]
			body[recFixedBytes+5] ^= 0x40
			binary.LittleEndian.PutUint32(seg[off+4:], crc32.Checksum(body, castagnoli))
			return seg
		}
	}
	cut := func(n int) func([]byte) []byte { return func(seg []byte) []byte { return seg[:n] } }
	const f = WriteFrameBytes
	for _, tc := range []struct {
		name    string
		covered int
		edit    func([]byte) []byte
		err     func(error) bool // nil: no error
		// The records delivered (and so authenticated), the records the file
		// holds, the bytes read and the torn tail's offset (-1: none).
		delivered, records int
		read, torn         int64
	}{
		{name: "nothing covered", covered: 0, delivered: 6, records: 6, read: 6 * f, torn: -1},
		{name: "two covered", covered: 2, delivered: 4, records: 6, read: 4 * f, torn: -1},
		{name: "every record covered", covered: 6, delivered: 0, records: 6, read: 0, torn: -1},
		{name: "a tampered covered frame", covered: 3, edit: flip(1), delivered: 3, records: 6, read: 3 * f, torn: -1},
		{name: "a tampered first uncovered frame", covered: 3, edit: flip(3), err: isIntegrityError},
		{name: "torn past the covered prefix", covered: 2, edit: cut(4*f + 10), delivered: 2, records: 4, read: 2*f + 10, torn: 4 * f},
		{name: "ending inside the covered prefix", covered: 4, edit: cut(2 * f), err: isShortSegment, records: 2, torn: -1},
		{name: "a partial frame inside the covered prefix", covered: 4, edit: cut(2*f + 40), err: isShortSegment, records: 2, torn: 2 * f},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, run := range loadGolden(t, goldenFrames) {
				seg := run.segment()
				if tc.edit != nil {
					seg = tc.edit(seg)
				}
				path := filepath.Join(t.TempDir(), "wal.covered")
				if err := os.WriteFile(path, seg, 0o644); err != nil {
					t.Fatal(err)
				}
				var got []Record
				info, err := ReplayTail(path, Options{Key: run.key}, run.first, run.first+uint64(tc.covered), func(r Record) error { got = append(got, kept(r)); return nil })
				if (tc.err == nil) != (err == nil) || err != nil && !tc.err(err) {
					t.Fatalf("%d-byte key: %v", len(run.key), err)
				}
				if isIntegrityError(err) {
					if len(got) != 0 {
						t.Fatalf("%d-byte key: %d records delivered before the tampered frame", len(run.key), len(got))
					}
					continue
				}
				torn := int64(-1)
				if info.TornTail != nil {
					torn = info.TornTail.Offset
				}
				if len(got) != tc.delivered || info.Authenticated != tc.delivered || info.Records != tc.records ||
					info.LastLSN != run.first+uint64(tc.records)-1 || info.BytesRead != tc.read || torn != tc.torn {
					t.Fatalf("%d-byte key: %d records delivered, %+v; want %d delivered and authenticated, %d records, %d bytes read, torn at %d",
						len(run.key), len(got), info, tc.delivered, tc.records, tc.read, tc.torn)
				}
				for i, r := range got {
					if want := run.records[tc.covered+i]; !sameRecord(r, want) {
						t.Fatalf("%d-byte key: delivered %+v, golden record %+v", len(run.key), r, want)
					}
				}
			}
		})
	}
}

func isIntegrityError(err error) bool {
	var ie *secmem.IntegrityError
	return errors.As(err, &ie)
}

func isShortSegment(err error) bool {
	var se *ShortSegmentError
	return errors.As(err, &se)
}

// isVersionError reports whether err is a *secmem.VersionError naming an
// older frame of the given kind, and no *secmem.IntegrityError.
func isVersionError(err error, kind byte) bool {
	var ve *secmem.VersionError
	var ie *secmem.IntegrityError
	return errors.As(err, &ve) && ve.Version == uint64(kind) && ve.WantVersion == uint64(KindWrite) && !errors.As(err, &ie)
}

// Every frame of the generation before, alone and as the segment and batch
// its run makes, is refused by each reader by its kind byte, before its MAC
// is looked at: an older build's journal is another version, never
// tampering, and replay leaves the file as it found it.
func TestOldFramesAreAVersionError(t *testing.T) {
	kinds := map[byte]bool{}
	for _, run := range loadGolden(t, oldGenFrames) {
		codec, err := NewCodec(Options{Key: run.key})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "wal.old")
		refuse := func(r Record) error {
			t.Fatalf("%d-byte key: record %+v of the generation before delivered", len(run.key), r)
			return nil
		}
		check := func(p []byte, lsn uint64) {
			t.Helper()
			kind := p[frameHdrBytes]
			if _, err := codec.DecodeAll(p, lsn, refuse); !isVersionError(err, kind) {
				t.Errorf("%d-byte key, LSN %d, kind %#x: DecodeAll returned %v, want a *secmem.VersionError", len(run.key), lsn, kind, err)
			}
			if err := os.WriteFile(path, p, 0o644); err != nil {
				t.Fatal(err)
			}
			info, err := ReplayTail(path, Options{Key: run.key}, lsn, lsn, refuse)
			if !isVersionError(err, kind) {
				t.Errorf("%d-byte key, LSN %d, kind %#x: ReplayTail returned %+v, %v, want a *secmem.VersionError", len(run.key), lsn, kind, info, err)
			}
		}
		for i, frame := range run.frames {
			kinds[frame[frameHdrBytes]] = true
			check(frame, run.records[i].LSN)
		}
		check(run.segment(), run.first)
	}
	for _, kind := range []byte{0x01, 0x02, 0x03} {
		if !kinds[kind] {
			t.Errorf("no golden frame of kind %#x", kind)
		}
	}
}

// parentDecode is the decoder of the generation before, kept as the
// stand-in for a replica still running it: its frame layout (a u64 count
// behind the address), subkeys from crypto/hmac, and HMAC-SHA256 over every
// body. It returns the records of a batch or the first error.
func parentDecode(key, batch []byte, firstLSN uint64) ([]Record, error) {
	const fixed, tag = 25, 8 // kind + lsn + addr + count; the MAC
	sub := func(label string) []byte {
		h := hmac.New(sha256.New, key)
		h.Write([]byte(label))
		return h.Sum(nil)
	}
	cipher, err := aesctr.New(sub("morphtree/wal/enc"))
	if err != nil {
		return nil, err
	}
	macKey := sub("morphtree/wal/mac")
	var recs []Record
	for next := firstLSN; len(batch) > 0; next++ {
		if len(batch) < frameHdrBytes {
			return recs, fmt.Errorf("header cut short")
		}
		n := int(binary.LittleEndian.Uint32(batch))
		if n < fixed+tag || len(batch) < frameHdrBytes+n {
			return recs, fmt.Errorf("frame length %d", n)
		}
		body := batch[frameHdrBytes : frameHdrBytes+n]
		if crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(batch[4:]) {
			return recs, fmt.Errorf("CRC mismatch")
		}
		h := hmac.New(sha256.New, macKey)
		h.Write(body[:n-tag])
		if !hmac.Equal(h.Sum(nil)[:tag], body[n-tag:]) {
			return recs, fmt.Errorf("MAC mismatch at LSN %d", next)
		}
		rec := Record{Kind: body[0], LSN: binary.LittleEndian.Uint64(body[1:]), Addr: binary.LittleEndian.Uint64(body[9:])}
		if rec.LSN != next {
			return recs, fmt.Errorf("LSN %d, want %d", rec.LSN, next)
		}
		if payload := body[fixed : n-tag]; len(payload) > 0 {
			rec.Line = make([]byte, len(payload))
			if err := cipher.XOR(rec.Line, payload, rec.LSN, 0); err != nil {
				return recs, err
			}
		}
		recs = append(recs, rec)
		batch = batch[frameHdrBytes+n:]
	}
	return recs, nil
}

// A replica running the generation before cannot read this one's batches:
// it takes the first frame for tampering. That is why a poll carries the
// bit that says its sender reads this generation, and a primary refuses one
// without it (wire.ReplicateRequest's CurrentWAL) before it seals a batch.
func TestParentDecoderRejectsNewBatches(t *testing.T) {
	key := []byte("an epoch-bound replication key..")
	codec, err := NewCodec(Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	const first = 7001
	var batch []byte
	for i := 0; i < 40; i++ {
		rec := Record{Kind: KindWrite, LSN: first + uint64(i), Addr: uint64(i*i) * 64, Line: line(byte(3 * i))}
		if batch, err = codec.AppendRecord(batch, rec); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := parentDecode(key, batch, first); err == nil || len(got) != 0 {
		t.Fatalf("the parent's decoder read %d records of a current batch (%v), want a refusal of the first", len(got), err)
	}
	// And the stand-in is the parent's decoder: it reads the parent's frames.
	for _, run := range loadGolden(t, oldGenFrames) {
		if got, err := parentDecode(run.key, run.segment(), run.first); err != nil || len(got) != len(run.frames) {
			t.Fatalf("%d-byte key: the parent's decoder read %d of its own %d frames: %v", len(run.key), len(got), len(run.frames), err)
		}
	}
}

// Appending is the part of a durable write that is not the engine's, and it
// used to cost more than the engine: nine allocations a record. Both ways in
// are pinned at none — a Log's frame is sealed in the Log, a Codec's in dst.
func TestAppendDoesNotAllocate(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	l, err := Create(filepath.Join(t.TempDir(), "wal.alloc"), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := line(9)
	lsn := uint64(0)
	write := func() Record { lsn++; return Record{Kind: KindWrite, LSN: lsn, Addr: lsn * 64, Line: payload} }
	if err := l.Append(write()); err != nil { // warm: the Keyer's message buffer has grown
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() {
		if err := l.Append(write()); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Log.Append of a write record allocates %v times, want 0", n)
	}

	codec, err := NewCodec(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 64*WriteFrameBytes)
	if n := testing.AllocsPerRun(500, func() {
		dst = dst[:0]
		for i := 0; i < 8; i++ {
			if dst, err = codec.AppendRecord(dst, write()); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("Codec.AppendRecord of write records into a reused dst allocates %v times per 8, want 0", n)
	}
}

// BenchmarkAppend is one write record sealed into a Log's buffer; the file is
// written as the buffer fills and never synced, so this is the CPU a durable
// write spends in the WAL.
func BenchmarkAppend(b *testing.B) {
	l, err := Create(filepath.Join(b.TempDir(), "wal.bench"), testOpts())
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := line(1)
	b.SetBytes(WriteFrameBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(Record{Kind: KindWrite, LSN: uint64(i) + 1, Addr: uint64(i%4096) * 64, Line: payload}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay is recovery's share of the WAL: a 4 096-record segment read,
// CRC- and MAC-checked and unsealed, per record.
func BenchmarkReplay(b *testing.B) {
	const records = 4096
	path := filepath.Join(b.TempDir(), "wal.bench")
	l, err := Create(path, testOpts())
	if err != nil {
		b.Fatal(err)
	}
	payload := line(1)
	for i := 0; i < records; i++ {
		if err := l.Append(Record{Kind: KindWrite, LSN: uint64(i) + 1, Addr: uint64(i) * 64, Line: payload}); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(WriteFrameBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += records {
		info, err := ReplayTail(path, testOpts(), 1, 1, func(Record) error { return nil })
		if err != nil || info.Records != records {
			b.Fatalf("replay: %+v, %v", info, err)
		}
	}
}
