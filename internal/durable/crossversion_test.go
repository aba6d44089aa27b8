package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/securemem/morphtree/internal/ckpt"
)

// testdata/parent_dir is a data directory written by the commit before the
// word-wise codec and the pre-keyed MAC (how:
// internal/counters/testdata/README.md): 2 shards of morph128 over 4 MiB,
// opened fresh, written through a full checkpoint, a delta checkpoint and a
// WAL tail, then closed. parent_dir.json says which lines it holds and how
// often each was written. Recovery decodes and re-verifies sealed lines from
// all three file kinds, so it exercises every format the rewrite touched.

func parentDirLine(d uint64, v int) []byte {
	line := make([]byte, LineBytes)
	for i := range line {
		line[i] = byte(d*131 + uint64(v)*17 + uint64(i))
	}
	return line
}

func TestParentDataDirectoryRecovers(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent_dir.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		MemoryBytes uint64         `json:"memory_bytes"`
		Shards      int            `json:"shards"`
		Versions    map[string]int `json:"versions"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	// Recovery rewrites the directory; work on a copy.
	dir := t.TempDir()
	entries, err := os.ReadDir("testdata/parent_dir")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join("testdata/parent_dir", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	shcfg := testShardConfig(t, man.Shards, man.MemoryBytes)
	m, info := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways, VerifyAll: true})
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
				t.Fatalf("line %d reads back wrong from the parent's directory", d)
			}
		}
		if err := m.VerifyAll(); err != nil {
			t.Fatal(err)
		}
	}
	check(m)

	// It is a live store: write on, checkpoint both ways, reopen.
	for d := uint64(0); d < 8; d++ {
		key := strconv.FormatUint(d, 10)
		man.Versions[key]++
		if err := m.Write(d*LineBytes, parentDirLine(d, man.Versions[key])); err != nil {
			t.Fatal(err)
		}
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
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes written, not the parent's %d byte for byte", name, len(got), len(want))
		}
		hdr, lines, err := ckpt.ReadDelta(filepath.Join("testdata/golden_deltas", name), deltaKey(testKey), seq, seq-1)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.Seq != seq || hdr.Base != seq-1 || len(lines) != 2 || len(lines[0]) < 2 || len(lines[1]) < 2 {
			t.Fatalf("%s: read back as %+v with %d shards", name, hdr, len(lines))
		}
	}
	if st := m.Stats(); st.Overflows[0] == 0 {
		t.Fatal("the history did not overflow a counter")
	}
}
