package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/counters"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/secmem"
)

// TestOldInputIsAVersionError opens every fixture written before the line
// MAC became GHASH-then-AES, the data directory written before the WAL took
// it up, every state stream written before its frames carried the line
// MAC's tags ("MCST" version 2), and the tenant list written before it was a
// state stream ("MTTL" version 1), through the public entry point that reads
// it: a
// Save stream through secmem.Load, a data directory through Open, a snapshot
// or delta file through ckpt.ReadDelta, a replica's bootstrap through
// InstallSnapshot, a proof through proof.DecodeProof. Every one is refused by
// its header with a *secmem.VersionError — never an *secmem.IntegrityError,
// which would say the bytes were tampered with when they are only old.
func TestOldInputIsAVersionError(t *testing.T) {
	morph := counters.MorphSpec(true)
	saveCfg := secmem.Config{MemoryBytes: 2 << 20, Enc: morph, Tree: []counters.Spec{morph}, Key: testKey}
	load := func(path string) func(*testing.T) error {
		return func(t *testing.T) error {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, err = secmem.Load(saveCfg, bytes.NewReader(blob))
			return err
		}
	}
	open := func(fixture string) func(*testing.T) error {
		return func(t *testing.T) error {
			dir, man := copyFixtureDir(t, fixture)
			_, _, err := Open(testShardConfig(t, man.Shards, man.MemoryBytes), Config{Dir: dir, Sync: SyncNone})
			return err
		}
	}
	readDelta := func(path string, seq, base uint64) func(*testing.T) error {
		return func(*testing.T) error {
			_, _, err := readDeltaLines(path, deltaKey(testKey), seq, base)
			return err
		}
	}
	install := func(path string, seq uint64) func(*testing.T) error {
		return func(t *testing.T) error {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m, _ := mustOpen(t, testShardConfig(t, 2, 4<<20), Config{Dir: t.TempDir(), Sync: SyncNone})
			defer m.Close()
			if err := m.SpoolPage(0, blob); err != nil {
				t.Fatal(err)
			}
			_, err = m.InstallSnapshot(seq)
			return err
		}
	}
	decodeProof := func(path string) func(*testing.T) error {
		return func(t *testing.T) error {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, err = proof.DecodeProof(raw)
			return err
		}
	}
	type row struct {
		name string
		open func(*testing.T) error
	}
	snap := filepath.Base(SnapshotPath("", 2))
	rows := []row{
		{"secmem.Load parent_save.bin", load("../secmem/testdata/parent_save.bin")},
		{"secmem.Load v2_save.bin", load("../secmem/testdata/v2_save.bin")},
		{"Open parent_dir", open("testdata/parent_dir")},
		{"Open v2_dir", open("testdata/v2_dir")},
		{"Open cw_dir", open("testdata/cw_dir")},
		{"ReadDelta parent_dir delta 3", readDelta("testdata/parent_dir/"+ckpt.DeltaName(3, 2), 3, 2)},
		{"ReadDelta v2_dir snapshot 2", readDelta("testdata/v2_dir/"+snap, 2, 0)},
		{"ReadDelta v2_dir delta 3", readDelta("testdata/v2_dir/"+ckpt.DeltaName(3, 2), 3, 2)},
		{"InstallSnapshot v2_dir snapshot 2", install("testdata/v2_dir/"+snap, 2)},
		{"Open cwwal_dir", open("testdata/cwwal_dir")},
		{"ReadDelta cw_dir snapshot 2", readDelta("testdata/cw_dir/"+snap, 2, 0)},
		{"ReadDelta cwwal_dir delta 3", readDelta("testdata/cwwal_dir/"+ckpt.DeltaName(3, 2), 3, 2)},
		{"InstallSnapshot cwwal_dir snapshot 2", install("testdata/cwwal_dir/"+snap, 2)},
		{"Open mttl_dir", func(t *testing.T) error {
			_, _, err := Open(tenantShardConfig(t, "alpha", "beta"), Config{Dir: copyDir(t, "testdata/mttl_dir"), Sync: SyncNone})
			return err
		}},
	}
	for seq := uint64(2); seq <= 4; seq++ {
		name := ckpt.DeltaName(seq, seq-1)
		rows = append(rows, row{"ReadDelta golden_deltas " + name, readDelta("testdata/golden_deltas/"+name, seq, seq-1)})
		rows = append(rows, row{"ReadDelta cw_deltas " + name, readDelta("testdata/cw_deltas/"+name, seq, seq-1)})
	}
	for _, d := range []int{0, 17, 39, 5000} {
		rows = append(rows, row{fmt.Sprintf("DecodeProof parent_proof_%d.bin", d), decodeProof(fmt.Sprintf("../proof/testdata/parent_proof_%d.bin", d))})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			err := r.open(t)
			var ve *secmem.VersionError
			var ie *secmem.IntegrityError
			if !errors.As(err, &ve) || errors.As(err, &ie) {
				t.Fatalf("got %v, want a *secmem.VersionError and no *secmem.IntegrityError", err)
			}
		})
	}
}
