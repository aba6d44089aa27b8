package durable

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/secmem"
)

// writeSome journals n distinct line writes spread over both shards and
// returns the addresses written.
func writeSome(t *testing.T, m *Memory, seed, n uint64) []uint64 {
	t.Helper()
	addrs := make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		addr := (seed*131 + i*7) % (m.MemoryBytes() / LineBytes) * LineBytes
		if err := m.Write(addr, oracle.Fill(addr, seed+i)); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	return addrs
}

func verifyAddrs(t *testing.T, a, b *Memory, addrs []uint64) {
	t.Helper()
	for _, addr := range addrs {
		want, err := a.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Read(addr)
		if err != nil {
			t.Fatalf("read %#x after recovery: %v", addr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("line %#x mismatch after recovery", addr)
		}
	}
}

func listEpochFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

func TestDeltaCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 1<<13)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	addrs := writeSome(t, m, 1, 40)
	if err := m.CheckpointDelta(); err != nil {
		t.Fatal(err)
	}
	if m.Seq() != 2 || m.BaseSeq() != 1 || m.DeltaChainLen() != 1 {
		t.Fatalf("after delta: seq=%d baseSeq=%d chain=%d", m.Seq(), m.BaseSeq(), m.DeltaChainLen())
	}
	addrs = append(addrs, writeSome(t, m, 2, 30)...)
	if err := m.CheckpointDelta(); err != nil {
		t.Fatal(err)
	}
	// WAL tail past the chain.
	addrs = append(addrs, writeSome(t, m, 3, 20)...)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	re, info, err := Open(shcfg, Config{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if info.DeltasApplied != 2 || info.DeltaLines == 0 {
		t.Fatalf("recovery applied %d deltas (%d lines), want 2", info.DeltasApplied, info.DeltaLines)
	}
	if info.SnapshotSeq != 1 {
		t.Fatalf("recovered from snapshot %d, want base 1", info.SnapshotSeq)
	}
	if re.Seq() != 3 || re.BaseSeq() != 1 {
		t.Fatalf("reopened seq=%d baseSeq=%d, want 3/1", re.Seq(), re.BaseSeq())
	}
	verifyAddrs(t, m, re, addrs)
	if err := re.VerifyAll(); err != nil {
		t.Fatal(err)
	}

	// The reopened memory keeps working: write, delta, full, reopen.
	addrs = append(addrs, writeSome(t, re, 4, 10)...)
	if err := re.CheckpointDelta(); err != nil {
		t.Fatal(err)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if re.DeltaChainLen() != 0 {
		t.Fatalf("chain after compaction = %d, want 0", re.DeltaChainLen())
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, _, err := Open(shcfg, Config{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	verifyAddrs(t, re, re2, addrs)
}

func TestDeltaRecoveryMatchesFullReplay(t *testing.T) {
	// The same write sequence recovered two ways — via delta chain and via
	// pure WAL replay — must agree line for line.
	shcfg := testShardConfig(t, 2, 1<<13)
	dirA, dirB := t.TempDir(), t.TempDir()
	ma, _ := mustOpen(t, shcfg, Config{Dir: dirA, Sync: SyncAlways})
	mb, _ := mustOpen(t, shcfg, Config{Dir: dirB, Sync: SyncAlways})
	var addrs []uint64
	for round := uint64(0); round < 3; round++ {
		for i := uint64(0); i < 25; i++ {
			addr := (round*97 + i*13) % (ma.MemoryBytes() / LineBytes) * LineBytes
			line := oracle.Fill(addr, round*100+i)
			if err := ma.Write(addr, line); err != nil {
				t.Fatal(err)
			}
			if err := mb.Write(addr, line); err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, addr)
		}
		if err := ma.CheckpointDelta(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ma.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mb.Close(); err != nil {
		t.Fatal(err)
	}
	ra, ia, err := Open(shcfg, Config{Dir: dirA, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	rb, ib, err := Open(shcfg, Config{Dir: dirB, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if ia.DeltasApplied != 3 {
		t.Fatalf("delta path applied %d deltas, want 3", ia.DeltasApplied)
	}
	if ib.DeltasApplied != 0 || ib.ReplayedRecords != 75 {
		t.Fatalf("replay path: %d deltas, %d writes", ib.DeltasApplied, ib.ReplayedRecords)
	}
	// Delta recovery replays only the tail past the chain.
	if ia.ReplayedRecords != 0 {
		t.Fatalf("delta path replayed %d WAL writes, want 0 (chain covers them)", ia.ReplayedRecords)
	}
	verifyAddrs(t, ra, rb, addrs)
}

func TestCompactionSweepsDeltaChain(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 1<<13)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	defer m.Close()
	writeSome(t, m, 1, 10)
	if err := m.CheckpointDelta(); err != nil {
		t.Fatal(err)
	}
	writeSome(t, m, 2, 10)
	if err := m.CheckpointDelta(); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := m.Durability()
	if st.DeltaCheckpoints != 2 || st.Compactions != 1 {
		t.Fatalf("stats: %+v", st)
	}
	for _, name := range listEpochFiles(t, dir) {
		if strings.HasPrefix(name, "delta.") {
			t.Fatalf("compaction left delta %s behind", name)
		}
		if seq, _, _, ok := parseSeq(name); ok && seq != 4 {
			t.Fatalf("compaction left epoch-%d file %s behind", seq, name)
		}
	}
}

func TestOrphanedDeltaSweptAtRecovery(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 1<<13)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	writeSome(t, m, 1, 10)
	if err := m.CheckpointDelta(); err != nil { // delta.2.1
		t.Fatal(err)
	}
	addrs := writeSome(t, m, 2, 10)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash that interrupted compaction cleanup: a newer full
	// snapshot exists, and the old chain's base was already removed —
	// delta.2.1 is an orphan (its base snapshot is gone, but it is not
	// the recovery head).
	m2, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	if err := m2.Checkpoint(); err != nil { // snapshot.3, sweeps old files
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	orphan := ckpt.DeltaPath(dir, 2, 1)
	if err := os.WriteFile(orphan, []byte("stale orphan resurrected by backup restore"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, _, err := Open(shcfg, Config{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan delta survived recovery sweep: %v", err)
	}
	verifyAddrs(t, m2, re, addrs)
}

func TestMissingBaseFailsRecoveryTyped(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 1<<13)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	writeSome(t, m, 1, 10)
	if err := m.CheckpointDelta(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Remove the base snapshot: the head delta now references a missing
	// epoch. Recovery must fail with the typed chain error — never fall
	// back to replaying some older state as if the delta didn't exist.
	if err := os.Remove(SnapshotPath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(shcfg, Config{Dir: dir, Sync: SyncAlways})
	var ce *ckpt.ChainError
	if !errors.As(err, &ce) {
		t.Fatalf("recovery with missing base: got %v, want *ckpt.ChainError", err)
	}
	if ce.Head != 2 || ce.Missing != 1 {
		t.Fatalf("chain error %+v, want head 2 missing 1", ce)
	}
}

// TestSweepKeepsExactlyTheHeadChain: after a delta cut the directory holds
// the head's chain — its base snapshot, the base's WAL segments and every
// link delta — and nothing else: not the chain a compaction superseded, not
// an orphan delta, not a next-epoch leftover.
func TestSweepKeepsExactlyTheHeadChain(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 1<<13)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	defer m.Close()
	for i, cut := range []func() error{
		m.CheckpointDelta, // 2 (chain on 1)
		m.Checkpoint,      // 3 (compaction)
		m.CheckpointDelta, // 4 (chain on 3)
	} {
		writeSome(t, m, uint64(i+1), 10)
		if err := cut(); err != nil {
			t.Fatal(err)
		}
	}
	for _, stale := range []string{ckpt.DeltaPath(dir, 2, 1), SegmentPath(dir, 7, 0)} {
		if err := os.WriteFile(stale, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeSome(t, m, 4, 10)
	if err := m.CheckpointDelta(); err != nil { // 5 (chain on 3), and its sweep
		t.Fatal(err)
	}
	want := []string{
		ckpt.DeltaName(4, 3), ckpt.DeltaName(5, 4),
		filepath.Base(SnapshotPath(dir, 3)),
		filepath.Base(SegmentPath(dir, 3, 0)), filepath.Base(SegmentPath(dir, 3, 1)),
	}
	var got []string
	for _, name := range listEpochFiles(t, dir) {
		if _, _, _, ok := parseSeq(name); ok {
			got = append(got, name)
		}
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("after the sweep: %v, want %v", got, want)
	}
}

func TestTamperedDeltaFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 1<<13)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	writeSome(t, m, 1, 10)
	if err := m.CheckpointDelta(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	path := ckpt.DeltaPath(dir, 2, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(shcfg, Config{Dir: dir, Sync: SyncAlways})
	if !isIntegrityError(err) {
		t.Fatalf("tampered delta recovery: got %v, want IntegrityError", err)
	}
}

func TestDirtyFloorSurvivesFailedDelta(t *testing.T) {
	// A delta cut whose file write fails must not lose the dirty lines:
	// the next successful cut re-collects them.
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 1<<13)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	addrs := writeSome(t, m, 1, 10)
	// Make the directory read-only so WriteDelta's temp file fails.
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	err := m.CheckpointDelta()
	if err2 := os.Chmod(dir, 0o755); err2 != nil {
		t.Fatal(err2)
	}
	if err == nil {
		t.Skip("running as a user unaffected by directory permissions")
	}
	if m.Seq() != 1 {
		t.Fatalf("failed delta advanced seq to %d", m.Seq())
	}
	if err := m.CheckpointDelta(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	re, info, err := Open(shcfg, Config{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if info.DeltasApplied != 1 {
		t.Fatalf("recovered %d deltas, want 1", info.DeltasApplied)
	}
	verifyAddrs(t, m, re, addrs)
}

func isIntegrityError(err error) bool {
	var ie *secmem.IntegrityError
	return errors.As(err, &ie)
}

// BenchmarkRecover is Open on morphcheck crash's recovery-curve directory at
// 512 KiB: four morph128 shards, eight writes a line (65 536) and an 800-write
// dirty tail, recovered by full WAL replay (full) or from a delta cut before
// the tail (delta). Each Open after the first finds a clean directory and
// writes nothing to it. frames/op and read-B/op are the WAL frames recovery
// authenticated and the segment bytes it read.
func BenchmarkRecover(b *testing.B) {
	const mem, tail = 512 << 10, 800
	shcfg := testShardConfig(b, 4, mem)
	for _, tc := range []struct {
		name  string
		delta bool
	}{{"full", false}, {"delta", true}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := Config{Dir: b.TempDir(), Sync: SyncNone}
			m, _ := mustOpen(b, shcfg, cfg)
			rng := rand.New(rand.NewSource(2)) // the curve's at 512 KiB under seed 1
			bulk := uint64(mem / LineBytes * 8)
			for i := uint64(0); i < bulk+tail; i++ {
				if tc.delta && i == bulk {
					if err := m.CheckpointDelta(); err != nil {
						b.Fatal(err)
					}
				}
				addr := rng.Uint64() % (mem / LineBytes) * LineBytes
				if err := m.Write(addr, oracle.Fill(addr, i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := m.Close(); err != nil {
				b.Fatal(err)
			}
			var info *RecoveryInfo
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, info = mustOpen(b, shcfg, cfg)
				if err := m.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(info.FramesAuthenticated), "frames/op")
			b.ReportMetric(float64(info.BytesRead), "read-B/op")
		})
	}
}
