package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/secmem"
)

var testKey = bytes.Repeat([]byte{7}, 32)

func TestStreamRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, 100, ChunkBytes, ChunkBytes + 1, 3*ChunkBytes + 17} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		var buf bytes.Buffer
		sw, err := NewStreamWriter(&buf, testKey, "test/roundtrip")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		sr, err := NewStreamReader(&buf, testKey, "test/roundtrip")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(sr)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("size %d: payload mismatch", size)
		}
	}
}

func streamBytes(t testing.TB, context string, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, testKey, context)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamFailsClosed(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, ChunkBytes+100)
	good := streamBytes(t, "test/tamper", payload)

	wantIntegrity := func(name string, raw []byte, context string) {
		t.Helper()
		sr, err := NewStreamReader(bytes.NewReader(raw), testKey, context)
		if err == nil {
			_, err = io.ReadAll(sr)
		}
		var ie *secmem.IntegrityError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: got %v, want IntegrityError", name, err)
		}
	}

	// Flip one payload byte: the frame CRC catches it.
	flipped := append([]byte(nil), good...)
	flipped[len(streamMagic)+10+len("test/tamper")+4+10] ^= 0x01
	wantIntegrity("bit flip", flipped, "test/tamper")

	// Truncate before the trailer: never silently accepted.
	wantIntegrity("truncated", good[:len(good)-1], "test/tamper")
	wantIntegrity("no trailer", good[:len(good)-streamMACLen-4], "test/tamper")

	// Wrong role: a stream decoded under another context is rejected.
	wantIntegrity("role confusion", good, "test/other")

	// Wrong key: trailer MAC mismatch.
	sr, err := NewStreamReader(bytes.NewReader(good), bytes.Repeat([]byte{9}, 32), "test/tamper")
	if err == nil {
		_, err = io.ReadAll(sr)
	}
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("wrong key: got %v, want IntegrityError", err)
	}
}

// lineShard is a DeltaShard over lines already in hand.
type lineShard []secmem.DirtyLine

func (s lineShard) WriteRecords(w io.Writer) error {
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(s)))
	for _, d := range s {
		out = d.AppendRecord(out)
	}
	_, err := w.Write(out)
	return err
}

// readDelta reads the state stream at path the way every caller does, its
// records through secmem.ReadRecords, and keeps the lines.
func readDelta(path string, seq, base uint64) (DeltaHeader, [][]secmem.DirtyLine, error) {
	var lines [][]secmem.DirtyLine
	hdr, err := ReadDelta(path, testKey, seq, base, func(_ DeltaHeader, shard int, r io.Reader) error {
		lines = append(lines, nil)
		return secmem.ReadRecords(r, func(batch []secmem.DirtyLine) error {
			for _, d := range batch {
				d.Line = bytes.Clone(d.Line)
				lines[shard] = append(lines[shard], d)
			}
			return nil
		})
	})
	return hdr, lines, err
}

func TestDeltaFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	hdr := DeltaHeader{
		Seq: 5, Base: 4,
		CoveredLSN:    []uint64{10, 20},
		CoveredWrites: []uint64{9, 18},
	}
	lines := []lineShard{
		{
			{Level: -1, Index: 3, Line: bytes.Repeat([]byte{1}, 64), MAC: 0xDEAD},
			{Level: 0, Index: 7, Line: bytes.Repeat([]byte{2}, 64)},
		},
		{
			{Level: 2, Index: 0, Line: bytes.Repeat([]byte{3}, 64)},
		},
	}
	path := DeltaPath(dir, 5, 4)
	if err := WriteDelta(new(StreamWriter), path, testKey, hdr, lines); err != nil {
		t.Fatal(err)
	}
	got, gotLines, err := readDelta(path, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 5 || got.Base != 4 || got.CoveredLSN[1] != 20 || got.CoveredWrites[0] != 9 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(gotLines) != 2 || len(gotLines[0]) != 2 || len(gotLines[1]) != 1 {
		t.Fatalf("line shape mismatch")
	}
	d := gotLines[0][0]
	if d.Level != -1 || d.Index != 3 || d.MAC != 0xDEAD || !bytes.Equal(d.Line, lines[0][0].Line) {
		t.Fatalf("line content mismatch: %+v", d)
	}

	// A delta renamed to another chain position fails authentication.
	moved := DeltaPath(dir, 6, 5)
	if err := os.Rename(path, moved); err != nil {
		t.Fatal(err)
	}
	_, _, err = readDelta(moved, 6, 5)
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("renamed delta: got %v, want IntegrityError", err)
	}

	// At-rest bit flip fails authentication.
	if err := os.Rename(moved, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = readDelta(path, 5, 4)
	if !errors.As(err, &ie) {
		t.Fatalf("tampered delta: got %v, want IntegrityError", err)
	}
}

func TestParseDeltaName(t *testing.T) {
	name := DeltaName(0x1f, 0x1e)
	seq, base, ok := ParseDeltaName(name)
	if !ok || seq != 0x1f || base != 0x1e {
		t.Fatalf("ParseDeltaName(%q) = %d,%d,%v", name, seq, base, ok)
	}
	for _, bad := range []string{"delta.", "delta.zz.11", "delta.0011", "snapshot.0001", "delta.1.2.3x"} {
		if _, _, ok := ParseDeltaName(bad); ok && bad != "delta.1.2.3x" {
			t.Fatalf("ParseDeltaName(%q) accepted", bad)
		}
	}
	if filepath.Base(DeltaPath("/x", 1, 2)) != DeltaName(1, 2) {
		t.Fatal("DeltaPath does not end in DeltaName")
	}
}

func TestResolveChain(t *testing.T) {
	snaps := map[uint64]bool{3: true, 7: true}
	deltas := map[uint64]Entry{
		4: {Seq: 4, Base: 3},
		5: {Seq: 5, Base: 4},
		6: {Seq: 6, Base: 5},
		9: {Seq: 9, Base: 8}, // orphan: base 8 missing
	}
	base, chain, err := ResolveChain(6, snaps, deltas)
	if err != nil || base != 3 || len(chain) != 3 {
		t.Fatalf("chain from 6: base=%d len=%d err=%v", base, len(chain), err)
	}
	if chain[0].Seq != 4 || chain[2].Seq != 6 {
		t.Fatalf("chain order wrong: %+v", chain)
	}
	base, chain, err = ResolveChain(7, snaps, deltas)
	if err != nil || base != 7 || len(chain) != 0 {
		t.Fatalf("snapshot head: base=%d len=%d err=%v", base, len(chain), err)
	}
	_, _, err = ResolveChain(9, snaps, deltas)
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Head != 9 || ce.Missing != 8 {
		t.Fatalf("broken chain: got %v", err)
	}
}

type fakeTarget struct {
	deltas, fulls atomic.Int64
	chain         atomic.Int64
}

func (f *fakeTarget) CheckpointDelta() error { f.deltas.Add(1); f.chain.Add(1); return nil }
func (f *fakeTarget) Checkpoint() error      { f.fulls.Add(1); f.chain.Store(0); return nil }
func (f *fakeTarget) DeltaChainLen() int     { return int(f.chain.Load()) }

func TestRunnerCompactsChain(t *testing.T) {
	ft := &fakeTarget{}
	r := NewRunner(ft, time.Millisecond, 0, 3, nil)
	deadline := time.Now().Add(5 * time.Second)
	for ft.fulls.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	if ft.fulls.Load() < 2 {
		t.Fatalf("runner never compacted: %d deltas, %d fulls", ft.deltas.Load(), ft.fulls.Load())
	}
	if ft.deltas.Load() == 0 {
		t.Fatal("runner cut no deltas")
	}
	// Stop is idempotent.
	r.Stop()
}

// TestRunnerSnapshotCadence: the snapshot cadence cuts full checkpoints on
// its own — with the delta cadence off no delta is ever cut — and alongside
// a delta cadence whose chain never reaches the compaction threshold.
func TestRunnerSnapshotCadence(t *testing.T) {
	for _, deltaEvery := range []time.Duration{0, time.Millisecond} {
		ft := &fakeTarget{}
		r := NewRunner(ft, deltaEvery, 2*time.Millisecond, 1<<30, nil)
		deadline := time.Now().Add(5 * time.Second)
		for (ft.fulls.Load() < 2 || (deltaEvery > 0 && ft.deltas.Load() == 0)) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		r.Stop()
		fulls, deltas := ft.fulls.Load(), ft.deltas.Load()
		if fulls < 2 {
			t.Fatalf("delta cadence %v: %d full checkpoints from the snapshot cadence, want >= 2", deltaEvery, fulls)
		}
		if (deltaEvery > 0) != (deltas > 0) {
			t.Fatalf("delta cadence %v: %d deltas cut", deltaEvery, deltas)
		}
		time.Sleep(5 * time.Millisecond)
		if ft.fulls.Load() != fulls || ft.deltas.Load() != deltas {
			t.Fatalf("delta cadence %v: checkpoints cut after Stop returned", deltaEvery)
		}
	}
}

// synthShard is a DeltaShard of n data-line records made up as they are
// written, so a benchmark's stream can be large without its lines in memory.
type synthShard struct{ n int }

func (s synthShard) WriteRecords(w io.Writer) error {
	out := binary.LittleEndian.AppendUint64(nil, uint64(s.n))
	line := bytes.Repeat([]byte{0xA5}, secmem.LineBytes)
	for i := 0; i < s.n; i++ {
		out = secmem.DirtyLine{Level: -1, Index: uint64(i), Line: line, MAC: uint64(i)}.AppendRecord(out)
		if len(out) >= ChunkBytes || i == s.n-1 {
			if _, err := w.Write(out); err != nil {
				return err
			}
			out = out[:0]
		}
	}
	return nil
}

// BenchmarkStream writes and reads a 2-shard state stream of 64 MiB the way a
// full checkpoint and a recovery do: WriteDelta to a file, temp file to fsync
// to rename, and ReadDelta through secmem.ReadRecords, its MAC checked.
func BenchmarkStream(b *testing.B) {
	perShard := (64 << 20) / 88 / 2 // a data line's record is 88 bytes
	shards := []synthShard{{perShard}, {perShard}}
	hdr := DeltaHeader{Seq: 2, CoveredLSN: make([]uint64, 2), CoveredWrites: make([]uint64, 2)}
	path := filepath.Join(b.TempDir(), "snapshot")
	write := func() {
		if err := WriteDelta(new(StreamWriter), path, testKey, hdr, shards); err != nil {
			b.Fatal(err)
		}
	}
	write()
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("write", func(b *testing.B) {
		b.SetBytes(st.Size())
		for i := 0; i < b.N; i++ {
			write()
		}
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(st.Size())
		for i := 0; i < b.N; i++ {
			n := 0
			if _, err := ReadDelta(path, testKey, 2, 0, func(_ DeltaHeader, _ int, r io.Reader) error {
				return secmem.ReadRecords(r, func(batch []secmem.DirtyLine) error { n += len(batch); return nil })
			}); err != nil || n != 2*perShard {
				b.Fatalf("read %d records (%v), want %d", n, err, 2*perShard)
			}
		}
	})
}
