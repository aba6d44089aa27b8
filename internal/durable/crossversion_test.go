package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/secmem"
)

// testdata/parent_dir is a data directory written by the commit before the
// word-wise codec and the pre-keyed MAC (how:
// internal/counters/testdata/README.md): 2 shards of morph128 over 4 MiB,
// opened fresh, written through a full checkpoint, a delta checkpoint and a
// WAL tail, then closed. parent_dir.json says which lines it holds and how
// often each was written. Recovery decodes and re-verifies sealed lines from
// all three file kinds, so it exercises every format the rewrite touched.
//
// Its snapshot is in the container ("MDSS", version 1) that went when every
// serialisation of the engine became the state stream: Open answers it with a
// *secmem.VersionError and leaves the directory alone. The sealed lines in it
// are still this engine's lines, so v1Snapshot walks them out, they are
// written back as a snapshot of today, and recovery — that snapshot, the
// parent's own delta and WAL segments — goes on as it did. testdata/v2_dir is
// the same history written whole by the commit that made the change.

func parentDirLine(d uint64, v int) []byte {
	line := make([]byte, LineBytes)
	for i := range line {
		line[i] = byte(d*131 + uint64(v)*17 + uint64(i))
	}
	return line
}

// recordShard is a ckpt.DeltaShard over lines already in hand.
type recordShard []secmem.DirtyLine

func (s recordShard) WriteRecords(w io.Writer) error {
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(s)))
	for _, d := range s {
		out = d.AppendRecord(out)
	}
	_, err := w.Write(out)
	return err
}

// v1Snapshot walks a version-1 snapshot file — "MDSS" around a version-1
// shard.Save ("MTSH") around one version-1 secmem.Save ("MTSM") a shard —
// into its coverage and each shard's records. The fixture is trusted: nothing
// is validated, and the file MAC that ends it is not looked at.
func v1Snapshot(blob []byte) (hdr ckpt.DeltaHeader, shards []recordShard) {
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(blob); blob = blob[8:]; return v }
	take := func(n uint64) []byte { b := blob[:n]; blob = blob[n:]; return b }
	take(4 + 8) // "MDSS", 1
	hdr.Seq = u64()
	for n := u64(); n > 0; n-- {
		hdr.CoveredLSN, hdr.CoveredWrites = append(hdr.CoveredLSN, u64()), append(hdr.CoveredWrites, u64())
	}
	take(4 + 8 + 8 + 8) // "MTSH", 1, shards, capacity
	for range hdr.CoveredLSN {
		take(8 + 4 + 8 + 8) // the blob's length; "MTSM", 1, capacity
		take(u64())         // the organization's fingerprint
		root := take(LineBytes)
		levels := u64()
		lines := recordShard{{Level: int32(levels), Line: root}}
		for lvl := uint64(0); lvl < levels; lvl++ {
			for n := u64(); n > 0; n-- {
				lines = append(lines, secmem.DirtyLine{Level: int32(lvl), Index: u64(), Line: take(LineBytes)})
			}
		}
		for n := u64(); n > 0; n-- {
			lines = append(lines, secmem.DirtyLine{Level: -1, Index: u64(), Line: take(LineBytes), MAC: u64()})
		}
		shards = append(shards, lines)
	}
	return hdr, shards
}

type dirManifest struct {
	MemoryBytes uint64         `json:"memory_bytes"`
	Shards      int            `json:"shards"`
	Versions    map[string]int `json:"versions"`
}

// copyFixtureDir copies a fixture directory (recovery rewrites the one it is
// given) and reads the manifest both of them share: they hold one history.
func copyFixtureDir(t *testing.T, from string) (string, dirManifest) {
	t.Helper()
	raw, err := os.ReadFile("testdata/parent_dir.json")
	if err != nil {
		t.Fatal(err)
	}
	var man dirManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	return copyDir(t, from), man
}

// copyDir copies a data directory's files into a new temporary one.
func copyDir(t *testing.T, from string) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestParentDataDirectoryRecovers(t *testing.T) {
	dir, man := copyFixtureDir(t, "testdata/parent_dir")
	shcfg := testShardConfig(t, man.Shards, man.MemoryBytes)
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(shcfg, Config{Dir: dir, Sync: SyncAlways})
	var ve *secmem.VersionError
	if !errors.As(err, &ve) || ve.Magic != "MDSS" || ve.Version != 1 {
		t.Fatalf("Open of a directory with a version-1 snapshot returned %v, want a *secmem.VersionError naming it", err)
	}
	if after, err := os.ReadDir(dir); err != nil || len(after) != len(before) {
		t.Fatalf("a refused directory went from %d files to %d (%v)", len(before), len(after), err)
	}
	old, err := os.ReadFile(SnapshotPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	hdr, shards := v1Snapshot(old)
	if err := ckpt.WriteDelta(new(ckpt.StreamWriter), SnapshotPath(dir, 2), deltaKey(testKey), hdr, shards); err != nil {
		t.Fatal(err)
	}
	recoverFixtureDir(t, dir, man)
}

// TestV2DataDirectoryRecovers holds the formats of a data directory to the
// one the commit that introduced the state stream wrote.
func TestV2DataDirectoryRecovers(t *testing.T) {
	dir, man := copyFixtureDir(t, "testdata/v2_dir")
	recoverFixtureDir(t, dir, man)
}

// recoverFixtureDir recovers a copy of a fixture directory — full snapshot 2,
// delta 3 and a WAL tail on both shards — reads it back against the manifest
// and goes on using it.
func recoverFixtureDir(t *testing.T, dir string, man dirManifest) {
	t.Helper()
	shcfg := testShardConfig(t, man.Shards, man.MemoryBytes)
	m, info := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncNone, VerifyAll: true})
	if info.Fresh || info.SnapshotSeq != 2 || info.DeltasApplied != 1 || info.ReplayedWrites == 0 {
		t.Fatalf("recovery = %+v, want snapshot 2 + one delta + a replayed WAL tail", info)
	}
	if info.TornTailCount() != 0 {
		t.Fatalf("a cleanly closed directory recovered with %d torn tails", info.TornTailCount())
	}
	check := func(m *Memory) {
		t.Helper()
		for key, v := range man.Versions {
			d, err := strconv.ParseUint(key, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Read(d * LineBytes)
			if err != nil {
				t.Fatalf("line %d: %v", d, err)
			}
			if !bytes.Equal(got, parentDirLine(d, v)) {
				t.Fatalf("line %d reads back wrong from the fixture directory", d)
			}
		}
		if err := m.VerifyAll(); err != nil {
			t.Fatal(err)
		}
	}
	check(m)

	// It is a live store: write on — line 7, the history's hot line, until a
	// counter the fixture's commit sealed overflows — checkpoint both ways,
	// reopen.
	write := func(d uint64) {
		t.Helper()
		key := strconv.FormatUint(d, 10)
		man.Versions[key]++
		if err := m.Write(d*LineBytes, parentDirLine(d, man.Versions[key])); err != nil {
			t.Fatal(err)
		}
	}
	for d := uint64(0); d < 8; d++ {
		write(d)
	}
	for i, before := 0, m.Stats().Overflows[0]; m.Stats().Overflows[0] == before; i++ {
		if i == 1<<16 {
			t.Fatal("65 536 writes to one line overflowed no counter")
		}
		write(7)
	}
	if err := m.CheckpointDelta(); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways, VerifyAll: true})
	check(m2)
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
}

// testdata/golden_deltas holds three chained delta segments written by the
// last commit whose delta checkpoint froze every shard and copied every dirty
// line before writing any (testdata/goldengen.go.txt; how:
// internal/counters/testdata/README.md). The cut that replaced the freeze
// promised the same bytes whenever nothing writes while it drains, so the same
// history played here must leave the same three files, and ReadDelta must read
// the parent's.

// goldenDeltaRound lists the data lines round r of the history writes, in
// order, repeats included; each round ends in a delta checkpoint.
func goldenDeltaRound(r int) []uint64 {
	const lines = 4 << 20 / LineBytes
	var ds []uint64
	switch r {
	case 0: // one full counter block a shard, then a hot line until its set overflows
		for d := uint64(0); d < 256; d++ {
			ds = append(ds, d)
		}
		for i := 0; i < 40; i++ {
			ds = append(ds, 6)
		}
	case 1: // scattered first writes, and the other shard's hot line
		for i := uint64(0); i < 100; i++ {
			ds = append(ds, (i*977+3)%lines)
		}
		for i := 0; i < 40; i++ {
			ds = append(ds, 7)
		}
	case 2: // rewrites of round 0's lines, and the far end of the store
		for d := uint64(0); d < 64; d++ {
			ds = append(ds, d, lines-1-d/2)
		}
	}
	return ds
}

// keepRecords reads one engine's share of a state stream with the decoder
// every reader uses, secmem.ReadRecords, and keeps the lines.
func keepRecords(r io.Reader) (lines []secmem.DirtyLine, err error) {
	err = secmem.ReadRecords(r, func(batch []secmem.DirtyLine) error {
		for _, d := range batch {
			d.Line = bytes.Clone(d.Line)
			lines = append(lines, d)
		}
		return nil
	})
	return lines, err
}

// keepShards is a ReadState callback that keeps every shard's lines in into.
func keepShards(into *[][]secmem.DirtyLine) func(ckpt.DeltaHeader, int, io.Reader) error {
	return func(_ ckpt.DeltaHeader, _ int, r io.Reader) error {
		lines, err := keepRecords(r)
		*into = append(*into, lines)
		return err
	}
}

// lineShare is one shard's share of a state stream, written back from the
// lines read out of one.
type lineShare []secmem.DirtyLine

func (l lineShare) WriteRecords(w io.Writer) error {
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(l)))
	for _, d := range l {
		out = d.AppendRecord(out)
	}
	_, err := w.Write(out)
	return err
}

// readDeltaLines reads a state stream file the way Open does and keeps the lines.
func readDeltaLines(path string, key []byte, seq, base uint64) (ckpt.DeltaHeader, [][]secmem.DirtyLine, error) {
	var lines [][]secmem.DirtyLine
	hdr, err := ckpt.ReadDelta(path, key, seq, base, keepShards(&lines))
	return hdr, lines, err
}

func TestGoldenDeltasReproduce(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 4<<20)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	defer m.Close()
	version := map[uint64]int{}
	for r := 0; r < 3; r++ {
		for _, d := range goldenDeltaRound(r) {
			version[d]++
			if err := m.Write(d*LineBytes, parentDirLine(d, version[d])); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.CheckpointDelta(); err != nil {
			t.Fatal(err)
		}
		seq := uint64(r + 2)
		name := ckpt.DeltaName(seq, seq-1)
		want, err := os.ReadFile(filepath.Join("testdata/golden_deltas", name))
		if err != nil {
			t.Fatal(err)
		}
		// The parent journaled overflow/rebase audit records, so the LSNs in
		// its coverage header run past its writes; this journal holds the
		// writes only. Everything else — the header's other fields, the lines
		// and their order, the container around them — is the parent's byte
		// for byte: the lines written here, under the parent's header, are
		// the parent's file.
		hdr, lines, err := readDeltaLines(filepath.Join(dir, name), deltaKey(testKey), seq, seq-1)
		if err != nil {
			t.Fatal(err)
		}
		parent, _, err := readDeltaLines(filepath.Join("testdata/golden_deltas", name), deltaKey(testKey), seq, seq-1)
		if err != nil {
			t.Fatal(err)
		}
		if parent.Seq != seq || parent.Base != seq-1 || len(lines) != 2 || len(lines[0]) < 2 || len(lines[1]) < 2 {
			t.Fatalf("%s: read back as %+v with %d shards", name, parent, len(lines))
		}
		if !slices.Equal(hdr.CoveredWrites, parent.CoveredWrites) || !slices.Equal(hdr.CoveredLSN, hdr.CoveredWrites) {
			t.Fatalf("%s: covers LSNs %v and writes %v, want the parent's writes %v at as many LSNs", name, hdr.CoveredLSN, hdr.CoveredWrites, parent.CoveredWrites)
		}
		var again bytes.Buffer
		if err := ckpt.WriteState(new(ckpt.StreamWriter), &again, deltaKey(testKey), parent, []lineShare{lines[0], lines[1]}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), want) {
			t.Fatalf("%s: %d bytes written under the parent's header, not the parent's %d byte for byte", name, again.Len(), len(want))
		}
	}
	if st := m.Stats(); st.Overflows[0] == 0 {
		t.Fatal("the history did not overflow a counter")
	}
}

// TestOneDecoderReadsEveryImage: engine state used to leave a process five
// ways, each with a decoder of its own. It is one record stream now, so one
// function — secmem.ReadRecords — must read an engine's share out of every
// full image, and read the same lines: secmem.Save, a snapshot file and a
// replica's bootstrap blob.
func TestOneDecoderReadsEveryImage(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 1<<20)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncNone})
	defer m.Close()
	for i := uint64(0); i < 300; i++ {
		d := i * 37 % 4096
		if err := m.Write(d*LineBytes, parentDirLine(d, int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	decode := func(r io.Reader) []secmem.DirtyLine {
		t.Helper()
		lines, err := keepRecords(r)
		if err != nil {
			t.Fatal(err)
		}
		return lines
	}
	skip := func(r io.Reader, n int64) io.Reader {
		t.Helper()
		if _, err := io.CopyN(io.Discard, r, n); err != nil {
			t.Fatal(err)
		}
		return r
	}

	_, want, err := readDeltaLines(SnapshotPath(dir, 2), deltaKey(testKey), 2, 0) // the snapshot file
	if err != nil {
		t.Fatal(err)
	}
	if len(want[0]) < 150 || len(want[1]) < 150 {
		t.Fatalf("the snapshot file holds %d and %d lines", len(want[0]), len(want[1]))
	}
	images := map[string][][]secmem.DirtyLine{}

	var save bytes.Buffer
	if err := m.Sharded().Shard(0).Save(&save); err != nil {
		t.Fatal(err)
	}
	images["secmem.Save"] = [][]secmem.DirtyLine{decode(skip(&save, secmem.HeaderBytes)), want[1]}

	var blob bytes.Buffer
	if _, err := m.SaveMarks(&blob); err != nil {
		t.Fatal(err)
	}
	var boot [][]secmem.DirtyLine
	if _, err := ckpt.ReadState(bytes.NewReader(blob.Bytes()), int64(blob.Len()), deltaKey(testKey), 1, 0, keepShards(&boot)); err != nil {
		t.Fatal(err)
	}
	images["bootstrap blob"] = boot

	for name, got := range images {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d and %d lines decoded, not the %d and %d of the snapshot file", name, len(got[0]), len(got[1]), len(want[0]), len(want[1]))
		}
	}
}
