package wal

import (
	"bufio"
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/securemem/morphtree/internal/aesctr"
	"github.com/securemem/morphtree/internal/racedetect"
)

// testdata/golden_frames.jsonl holds frames of all three record kinds as the
// commit before the pre-keyed sealer wrote them (testdata/goldengen.go.txt
// says how): every segment on disk and every batch a replica of that version
// sends or accepts is made of these bytes, so this sealer must write them and
// this decoder must read them. Rows of one key are LSN-contiguous in file
// order: concatenated they are a segment.
type goldenFrame struct {
	Key   string `json:"key"`
	Kind  byte   `json:"kind"`
	LSN   uint64 `json:"lsn"`
	Addr  uint64 `json:"addr"`
	Count uint64 `json:"count"`
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

func loadGolden(tb testing.TB) []*goldenRun {
	tb.Helper()
	f, err := os.Open("testdata/golden_frames.jsonl")
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
		rec := Record{Kind: g.Kind, LSN: g.LSN, Addr: g.Addr, Count: g.Count}
		if g.Kind == KindWrite {
			rec.Line = unhex(g.Line)
		}
		run.records = append(run.records, rec)
		run.frames = append(run.frames, unhex(g.Frame))
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return runs
}

func sameRecord(a, b Record) bool {
	return a.Kind == b.Kind && a.LSN == b.LSN && a.Addr == b.Addr && a.Count == b.Count && bytes.Equal(a.Line, b.Line)
}

func TestGoldenFrames(t *testing.T) {
	runs := loadGolden(t)
	kinds := map[byte]bool{}
	for _, run := range runs {
		codec, err := NewCodec(Options{Key: run.key})
		if err != nil {
			t.Fatal(err)
		}
		// The sealer writes the parent's bytes, alone and appended to a
		// batch, and through a Log onto disk.
		var batch []byte
		for i, rec := range run.records {
			kinds[rec.Kind] = true
			frame, err := codec.AppendRecord(nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, run.frames[i]) {
				t.Errorf("%d-byte key, LSN %d, kind %#x: sealed\n%x\ngolden\n%x", len(run.key), rec.LSN, rec.Kind, frame, run.frames[i])
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

		// The decoder reads the parent's bytes, as a batch and as a file.
		var got []Record
		keep := func(r Record) error { got = append(got, r); return nil }
		if n, err := codec.DecodeAll(run.segment(), run.first, keep); err != nil || n != len(run.records) {
			t.Fatalf("%d-byte key: DecodeAll of the golden frames: %d records, %v", len(run.key), n, err)
		}
		if err := os.WriteFile(path, run.segment(), 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := Replay(path, Options{Key: run.key}, run.first, false, keep)
		if err != nil || info.TornTail != nil || info.Records != len(run.records) {
			t.Fatalf("%d-byte key: Replay of the golden frames: %+v, %v", len(run.key), info, err)
		}
		for i, r := range got {
			if want := run.records[i%len(run.records)]; !sameRecord(r, want) {
				t.Errorf("%d-byte key: decoded %+v, golden record %+v", len(run.key), r, want)
			}
		}
	}
	for _, kind := range []byte{KindWrite, KindOverflow, KindRebase} {
		if !kinds[kind] {
			t.Errorf("no golden frame of kind %#x", kind)
		}
	}
}

// parentDecode is the parent commit's decoder, kept as the stand-in for a
// replica still running it: subkeys from crypto/hmac, and a fresh hmac.New
// under every record. It returns the records of a batch or the first error.
func parentDecode(key, batch []byte, firstLSN uint64) ([]Record, error) {
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
		if n < recFixedBytes+macBytes || len(batch) < frameHdrBytes+n {
			return recs, fmt.Errorf("frame length %d", n)
		}
		body := batch[frameHdrBytes : frameHdrBytes+n]
		if crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(batch[4:]) {
			return recs, fmt.Errorf("CRC mismatch")
		}
		h := hmac.New(sha256.New, macKey)
		h.Write(body[:n-macBytes])
		if !hmac.Equal(h.Sum(nil)[:macBytes], body[n-macBytes:]) {
			return recs, fmt.Errorf("MAC mismatch at LSN %d", next)
		}
		rec := Record{
			Kind:  body[0],
			LSN:   binary.LittleEndian.Uint64(body[1:]),
			Addr:  binary.LittleEndian.Uint64(body[9:]),
			Count: binary.LittleEndian.Uint64(body[17:]),
		}
		if rec.LSN != next {
			return recs, fmt.Errorf("LSN %d, want %d", rec.LSN, next)
		}
		if payload := body[recFixedBytes : n-macBytes]; len(payload) > 0 {
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

// A replica running the parent's wal.Codec accepts this commit's batches:
// records it never saw in a fixture, sealed here, verified there.
func TestParentDecoderAcceptsNewBatches(t *testing.T) {
	key := []byte("an epoch-bound replication key..")
	codec, err := NewCodec(Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	const first = 7001
	var want []Record
	var batch []byte
	for i := 0; i < 40; i++ {
		rec := Record{Kind: KindWrite, LSN: first + uint64(i), Addr: uint64(i*i) * 64, Line: line(byte(3 * i))}
		switch i % 7 {
		case 3:
			rec = Record{Kind: KindOverflow, LSN: rec.LSN, Count: uint64(i)}
		case 5:
			rec = Record{Kind: KindRebase, LSN: rec.LSN, Count: uint64(i) << 33}
		}
		want = append(want, rec)
		if batch, err = codec.AppendRecord(batch, rec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := parentDecode(key, batch, first)
	if err != nil {
		t.Fatalf("the parent's decoder refused the batch after %d records: %v", len(got), err)
	}
	if len(got) != len(want) {
		t.Fatalf("the parent's decoder read %d records of %d", len(got), len(want))
	}
	for i := range want {
		if !sameRecord(got[i], want[i]) {
			t.Errorf("record %d: the parent's decoder read %+v, sealed %+v", i, got[i], want[i])
		}
	}
	batch[len(batch)-macBytes-3] ^= 1 // and it is not accepting everything
	if _, err := parentDecode(key, batch, first); err == nil {
		t.Error("the parent's decoder accepted a flipped payload bit")
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
	audit := func() Record { lsn++; return Record{Kind: KindOverflow, LSN: lsn, Count: 2} }
	if err := l.Append(write()); err != nil { // warm: the MAC's pooled scratch exists
		t.Fatal(err)
	}
	for name, next := range map[string]func() Record{"write": write, "audit": audit} {
		if n := testing.AllocsPerRun(500, func() {
			if err := l.Append(next()); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Log.Append of a %s record allocates %v times, want 0", name, n)
		}
	}

	codec, err := NewCodec(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 64*WriteFrameBytes)
	for name, next := range map[string]func() Record{"write": write, "audit": audit} {
		if n := testing.AllocsPerRun(500, func() {
			dst = dst[:0]
			for i := 0; i < 8; i++ {
				if dst, err = codec.AppendRecord(dst, next()); err != nil {
					t.Fatal(err)
				}
			}
		}); n != 0 {
			t.Errorf("Codec.AppendRecord of %s records into a reused dst allocates %v times per 8, want 0", name, n)
		}
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
		info, err := Replay(path, testOpts(), 1, false, func(Record) error { return nil })
		if err != nil || info.Records != records {
			b.Fatalf("replay: %+v, %v", info, err)
		}
	}
}
