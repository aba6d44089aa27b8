package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
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
	if m.Seq() != 2 || m.SegSeq() != 1 || m.DeltaChainLen() != 1 {
		t.Fatalf("after delta: seq=%d segSeq=%d chain=%d", m.Seq(), m.SegSeq(), m.DeltaChainLen())
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
	if re.Seq() != 3 || re.SegSeq() != 1 {
		t.Fatalf("reopened seq=%d segSeq=%d, want 3/1", re.Seq(), re.SegSeq())
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
	if ib.DeltasApplied != 0 || ib.ReplayedWrites != 75 {
		t.Fatalf("replay path: %d deltas, %d writes", ib.DeltasApplied, ib.ReplayedWrites)
	}
	// Delta recovery replays only the tail past the chain.
	if ia.ReplayedWrites != 0 {
		t.Fatalf("delta path replayed %d WAL writes, want 0 (chain covers them)", ia.ReplayedWrites)
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

func TestKeepEpochsRetainsChains(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 1<<13)
	cfg := Config{Dir: dir, Sync: SyncAlways, KeepEpochs: 3}
	m, _ := mustOpen(t, shcfg, cfg)
	defer m.Close()
	writeSome(t, m, 1, 10)
	if err := m.CheckpointDelta(); err != nil { // 2 (chain on 1)
		t.Fatal(err)
	}
	writeSome(t, m, 2, 10)
	if err := m.Checkpoint(); err != nil { // 3 (compaction)
		t.Fatal(err)
	}
	writeSome(t, m, 3, 10)
	if err := m.Checkpoint(); err != nil { // 4
		t.Fatal(err)
	}
	// Floor is 4-3=1: every epoch is retained, and crucially snapshot 1
	// stays because retained delta 2 chains to it.
	have := map[string]bool{}
	for _, name := range listEpochFiles(t, dir) {
		have[name] = true
	}
	for _, want := range []string{
		filepath.Base(SnapshotPath(dir, 1)),
		ckpt.DeltaName(2, 1),
		filepath.Base(SnapshotPath(dir, 3)),
		filepath.Base(SnapshotPath(dir, 4)),
	} {
		if !have[want] {
			t.Fatalf("retention dropped %s; have %v", want, listEpochFiles(t, dir))
		}
	}
	writeSome(t, m, 4, 10)
	if err := m.Checkpoint(); err != nil { // 5: floor 2 → snapshot 1 still needed by delta 2
		t.Fatal(err)
	}
	if _, err := os.Stat(SnapshotPath(dir, 1)); err != nil {
		t.Fatalf("retention orphaned delta 2 by dropping its base: %v", err)
	}
	writeSome(t, m, 5, 10)
	if err := m.Checkpoint(); err != nil { // 6: floor 3 → delta 2 ages out, base 1 with it
		t.Fatal(err)
	}
	for _, gone := range []string{filepath.Base(SnapshotPath(dir, 1)), ckpt.DeltaName(2, 1)} {
		if _, err := os.Stat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
			t.Fatalf("%s should have aged out: %v", gone, err)
		}
	}
	if _, err := os.Stat(SnapshotPath(dir, 3)); err != nil {
		t.Fatalf("retained epoch 3 missing: %v", err)
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

// TestSaveMarksSignalsDurable: the bootstrap blob's fsync moves the durable
// mark, so it must wake a follower's long poll the way a group commit does,
// not leave it waiting for the poll to time out.
func TestSaveMarksSignalsDurable(t *testing.T) {
	m, _ := mustOpen(t, testShardConfig(t, 2, 1<<13), Config{Dir: t.TempDir(), Sync: SyncNone})
	defer m.Close()
	if err := m.Write(0, oracle.Fill(0, 1)); err != nil {
		t.Fatal(err)
	}
	sig := m.DurableSignal()
	marks, err := m.SaveMarks(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sig:
	default:
		t.Fatal("SaveMarks made a record durable without closing the DurableSignal channel")
	}
	if got := m.SyncedLSNs()[0]; got != marks[0] || got == 0 {
		t.Fatalf("synced mark %d after SaveMarks, want its mark %d", got, marks[0])
	}
}

func isIntegrityError(err error) bool {
	var ie *secmem.IntegrityError
	return errors.As(err, &ie)
}
