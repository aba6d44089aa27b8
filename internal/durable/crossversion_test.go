package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
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
