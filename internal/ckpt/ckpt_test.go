package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
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
		var sw StreamWriter
		if err := sw.Reset(&buf, testKey, "test/roundtrip"); err != nil {
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
	var sw StreamWriter
	if err := sw.Reset(&buf, testKey, context); err != nil {
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

	// wantIntegrity reads raw to its end and wants released bytes of the
	// payload, then an IntegrityError that contains says.
	wantIntegrity := func(name string, raw, key []byte, context string, released int, says string) {
		t.Helper()
		got, err := readUntilRefused(raw, key, context)
		var ie *secmem.IntegrityError
		if !errors.As(err, &ie) || !bytes.Equal(got, payload[:released]) || !strings.Contains(err.Error(), says) {
			t.Fatalf("%s: %d bytes released, then %v; want %d, then an IntegrityError saying %q", name, len(got), err, released, says)
		}
	}

	// Flip one payload byte: the frame's tag catches it.
	flipped := append([]byte(nil), good...)
	flipped[len(streamMagic)+10+len("test/tamper")+4+10] ^= 0x01
	wantIntegrity("bit flip", flipped, testKey, "test/tamper", 0, "frame 1:")

	// Truncate the end frame: never silently accepted.
	wantIntegrity("truncated", good[:len(good)-1], testKey, "test/tamper", len(payload), "frame 3 truncated")
	wantIntegrity("no end frame", good[:len(good)-lenBytes-tagBytes], testKey, "test/tamper", len(payload), "frame 3 truncated")

	// Wrong role: a stream decoded under another context is rejected with
	// its header.
	wantIntegrity("role confusion", good, testKey, "test/other", 0, "does not match role")

	// Wrong key: the first frame's tag does not check.
	wantIntegrity("wrong key", good, bytes.Repeat([]byte{9}, 32), "test/tamper", 0, "frame 1:")
}

// frames splits a stream written under context into its header and its
// frames, the end frame last, each with its length and tag.
func frames(t *testing.T, stream []byte, context string) (header []byte, out [][]byte) {
	t.Helper()
	off := len(streamMagic) + 10 + len(context)
	header = stream[:off]
	for off < len(stream) {
		n := int(binary.LittleEndian.Uint32(stream[off:]))
		out = append(out, stream[off:off+lenBytes+n+tagBytes])
		off += lenBytes + n + tagBytes
	}
	return header, out
}

// readUntilRefused reads stream to its end and returns what was released
// and the error that stopped it.
func readUntilRefused(stream []byte, key []byte, context string) ([]byte, error) {
	sr, err := NewStreamReader(bytes.NewReader(stream), key, context)
	if err != nil {
		return nil, err
	}
	var got bytes.Buffer
	_, err = io.Copy(&got, sr)
	return got.Bytes(), err
}

// TestStreamReleasesOnlyAuthenticatedFrames: a byte changed anywhere in frame
// k — its length, its payload or its tag — and Read has released exactly the
// frames before k when it fails, typed.
func TestStreamReleasesOnlyAuthenticatedFrames(t *testing.T) {
	const context = "test/release"
	payload := make([]byte, 4*ChunkBytes+100)
	for i := range payload {
		payload[i] = byte(i*7 + i>>16)
	}
	good := streamBytes(t, context, payload)
	header, fs := frames(t, good, context)
	if len(fs) != 6 {
		t.Fatalf("%d frames, want 5 and the end frame", len(fs))
	}
	off := len(header)
	for k, f := range fs {
		for _, at := range []int{0, lenBytes, len(f) / 2, len(f) - 1} {
			bad := bytes.Clone(good)
			bad[off+at] ^= 0x20
			got, err := readUntilRefused(bad, testKey, context)
			var ie *secmem.IntegrityError
			if !errors.As(err, &ie) || !bytes.Equal(got, payload[:min(k*ChunkBytes, len(payload))]) {
				t.Fatalf("frame %d, byte %d flipped: %d bytes released, then %v; want the %d bytes before it, then an IntegrityError",
					k+1, at, len(got), err, min(k*ChunkBytes, len(payload)))
			}
		}
		off += len(f)
	}
}

// TestReadStateAppliesOnlyAuthenticatedFrames: with frame k of a state stream
// damaged, ReadState's callback has read every byte of the frames before k
// and none of frame k's.
func TestReadStateAppliesOnlyAuthenticatedFrames(t *testing.T) {
	lines := make(lineShard, 3000) // 264 000 bytes of records: five frames
	for i := range lines {
		lines[i] = secmem.DirtyLine{Level: -1, Index: uint64(i), Line: bytes.Repeat([]byte{byte(i)}, secmem.LineBytes), MAC: uint64(i)}
	}
	hdr := DeltaHeader{Seq: 5, Base: 4, CoveredLSN: []uint64{1}}
	good := deltaFile(t, hdr, []lineShard{lines})
	payload := unframed(t, good)
	header, fs := frames(t, good, fuzzContext)
	off := len(header)
	for k, f := range fs[:len(fs)-1] {
		bad := bytes.Clone(good)
		bad[off+lenBytes+len(f)/3] ^= 1
		off += len(f)
		var applied bytes.Buffer
		_, err := ReadState(bytes.NewReader(bad), testKey, 5, 4, func(_ DeltaHeader, _ int, r io.Reader) error {
			_, err := io.Copy(&applied, r)
			return err
		})
		var ie *secmem.IntegrityError
		if !errors.As(err, &ie) {
			t.Fatalf("frame %d damaged: ReadState returned %v, want an IntegrityError", k+1, err)
		}
		if want := max(0, k*ChunkBytes-(3*8+16)); applied.Len() != want || !bytes.Equal(applied.Bytes(), payload[3*8+16:][:want]) {
			t.Fatalf("frame %d damaged: the callback read %d bytes, want the %d before it", k+1, applied.Len(), want)
		}
	}
}

// TestStreamRefusesRearrangedFrames: the tags chain every frame to the one
// before it and to its ordinal, so a frame moved, dropped or repeated, and a
// stream cut at a frame boundary, fail as tampering.
func TestStreamRefusesRearrangedFrames(t *testing.T) {
	const context = "test/order"
	payload := make([]byte, 3*ChunkBytes+5)
	for i := range payload {
		payload[i] = byte(i >> 8)
	}
	header, fs := frames(t, streamBytes(t, context, payload), context)
	join := func(parts ...[]byte) []byte { return bytes.Join(append([][]byte{header}, parts...), nil) }
	end := fs[4]
	cases := map[string][]byte{
		"frames 1 and 2 swapped": join(fs[1], fs[0], fs[2], fs[3], end),
		"frame 2 dropped":        join(fs[0], fs[2], fs[3], end),
		"frame 2 repeated":       join(fs[0], fs[1], fs[1], fs[2], fs[3], end),
		"the last frame dropped": join(fs[0], fs[1], fs[2], end),
		"the end frame first":    join(end, fs[0], fs[1], fs[2], fs[3], end),
	}
	for k := 0; k <= 4; k++ {
		cases[fmt.Sprintf("cut after frame %d", k)] = join(fs[:k]...)
	}
	for name, stream := range cases {
		got, err := readUntilRefused(stream, testKey, context)
		var ie *secmem.IntegrityError
		if !errors.As(err, &ie) || !bytes.HasPrefix(payload, got) {
			t.Errorf("%s: %d bytes released, then %v; want a prefix of the payload, then an IntegrityError", name, len(got), err)
		}
	}
}

// TestStreamRefusesLongFrameUnallocated: a frame that says it is longer than
// ChunkBytes is refused on its length, before a buffer is made for it.
func TestStreamRefusesLongFrameUnallocated(t *testing.T) {
	const context = "test/long"
	header, _ := frames(t, streamBytes(t, context, nil), context)
	for _, n := range []uint32{ChunkBytes + 1, 1 << 31, ^uint32(0)} {
		stream := binary.LittleEndian.AppendUint32(bytes.Clone(header), n)
		stream = append(stream, make([]byte, ChunkBytes+1+tagBytes)...)
		var got []byte
		var err error
		if a := allocatedBy(func() { got, err = readUntilRefused(stream, testKey, context) }); a >= ChunkBytes {
			t.Errorf("a frame of %d bytes: refusing it allocated %d bytes", n, a)
		}
		var ie *secmem.IntegrityError
		if !errors.As(err, &ie) || len(got) != 0 || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("a frame of %d bytes: %d bytes released, then %v; want it refused on its length", n, len(got), err)
		}
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

// TestCoverageWrittenTwice: a shard's coverage is its LSN written twice, and
// an authentic stream whose two differ is refused as tampering.
func TestCoverageWrittenTwice(t *testing.T) {
	hdr, shards := goldenDelta(t)
	payload := unframed(t, deltaFile(t, hdr, shards))
	for i, lsn := range hdr.CoveredLSN {
		at := 3*8 + 16*i
		if a, b := binary.LittleEndian.Uint64(payload[at:]), binary.LittleEndian.Uint64(payload[at+8:]); a != lsn || b != lsn {
			t.Fatalf("shard %d's coverage reads %d, %d; want LSN %d twice", i, a, b, lsn)
		}
	}
	binary.LittleEndian.PutUint64(payload[3*8+16+8:], hdr.CoveredLSN[1]-1)
	path := DeltaPath(t.TempDir(), 5, 4)
	if err := os.WriteFile(path, framed(t, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	var ie *secmem.IntegrityError
	if _, _, err := readDelta(path, 5, 4); !errors.As(err, &ie) {
		t.Fatalf("a stream whose shard 1 counts other than its LSN: %v, want a *secmem.IntegrityError", err)
	}
}

func TestDeltaFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	hdr := DeltaHeader{
		Seq: 5, Base: 4,
		CoveredLSN: []uint64{10, 20},
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
	if got.Seq != 5 || got.Base != 4 || got.CoveredLSN[0] != 10 || got.CoveredLSN[1] != 20 {
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

// fakeTarget counts the checkpoints it is asked for. Its chain grows by a delta
// and empties at a full checkpoint; a short one never reports more than a
// single delta, so the runner's compaction threshold is never reached.
type fakeTarget struct {
	deltas, fulls atomic.Int64
	chain         atomic.Int64
	short         bool
}

func (f *fakeTarget) CheckpointDelta() error { f.deltas.Add(1); f.chain.Add(1); return nil }
func (f *fakeTarget) Checkpoint() error      { f.fulls.Add(1); f.chain.Store(0); return nil }
func (f *fakeTarget) DeltaChainLen() int {
	if f.short {
		return min(int(f.chain.Load()), 1)
	}
	return int(f.chain.Load())
}

func TestRunnerCompactsChain(t *testing.T) {
	ft := &fakeTarget{}
	r := NewRunner(ft, time.Millisecond, 0, nil)
	deadline := time.Now().Add(5 * time.Second)
	for ft.fulls.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	if ft.fulls.Load() < 2 {
		t.Fatalf("runner never compacted: %d deltas, %d fulls", ft.deltas.Load(), ft.fulls.Load())
	}
	if d, f := ft.deltas.Load(), ft.fulls.Load(); d < maxChain*f {
		t.Fatalf("runner cut %d deltas for %d compactions, want %d before each", d, f, maxChain)
	}
	// Stop is idempotent.
	r.Stop()
}

// TestRunnerSnapshotCadence: the snapshot cadence cuts full checkpoints on
// its own — with the delta cadence off no delta is ever cut — and alongside
// a delta cadence whose chain never reaches the compaction threshold.
func TestRunnerSnapshotCadence(t *testing.T) {
	for _, deltaEvery := range []time.Duration{0, time.Millisecond} {
		ft := &fakeTarget{short: true}
		r := NewRunner(ft, deltaEvery, 2*time.Millisecond, nil)
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
// to rename, and ReadDelta through secmem.ReadRecords, every frame's tag checked.
func BenchmarkStream(b *testing.B) {
	perShard := (64 << 20) / 88 / 2 // a data line's record is 88 bytes
	shards := []synthShard{{perShard}, {perShard}}
	hdr := DeltaHeader{Seq: 2, CoveredLSN: make([]uint64, 2)}
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
