package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/invariant"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/racedetect"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wal"
)

var testKey = []byte("0123456789abcdef")

func testShardConfig(t testing.TB, shards int, memBytes uint64) shard.Config {
	t.Helper()
	enc, tree, err := shard.Organization("morph128")
	if err != nil {
		t.Fatal(err)
	}
	return shard.Config{
		Shards: shards,
		Mem: secmem.Config{
			MemoryBytes: memBytes,
			Enc:         enc,
			Tree:        tree,
			Key:         testKey,
		},
	}
}

func mustOpen(t testing.TB, shcfg shard.Config, cfg Config) (*Memory, *RecoveryInfo) {
	t.Helper()
	m, info, err := Open(shcfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, info
}

func TestFreshOpenWriteReopen(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 1<<13)
	m, info := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	if !info.Fresh || info.SnapshotSeq != 1 {
		t.Fatalf("fresh open info = %+v, want Fresh with seq 1", info)
	}
	const writes = 64
	for i := uint64(0); i < writes; i++ {
		if err := m.Write(i*LineBytes, oracle.Fill(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	d := m.Durability()
	if d.Appends != writes || d.Fsyncs == 0 {
		t.Fatalf("durability stats = %+v, want %d appends and some fsyncs", d, writes)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, info2 := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	defer func() {
		if err := m2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if info2.Fresh {
		t.Fatal("second open reported Fresh")
	}
	if info2.ReplayedWrites != writes {
		t.Fatalf("replayed %d writes, want %d", info2.ReplayedWrites, writes)
	}
	if info2.SampleVerified == 0 {
		t.Fatal("recovery verified no replayed lines through the tree")
	}
	if info2.TornTailCount() != 0 {
		t.Fatalf("clean shutdown reported %d torn tails", info2.TornTailCount())
	}
	for i := uint64(0); i < writes; i++ {
		got, err := m2.Read(i * LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, oracle.Fill(i, 1)) {
			t.Fatalf("line %d mismatch after recovery", i)
		}
	}
	if err := m2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRotatesEpochs(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 1<<13)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncNone})
	for i := uint64(0); i < 32; i++ {
		if err := m.Write(i*LineBytes, oracle.Fill(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if m.Seq() != 2 {
		t.Fatalf("seq after checkpoint = %d, want 2", m.Seq())
	}
	// Epoch 1 files must be gone; epoch 2 snapshot + segments present.
	if _, err := os.Stat(SnapshotPath(dir, 1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("old snapshot still present: %v", err)
	}
	if _, err := os.Stat(SegmentPath(dir, 1, 0)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("old segment still present: %v", err)
	}
	if _, err := os.Stat(SnapshotPath(dir, 2)); err != nil {
		t.Fatal(err)
	}

	// More writes after the checkpoint land in epoch 2's WAL.
	for i := uint64(32); i < 48; i++ {
		if err := m.Write(i*LineBytes, oracle.Fill(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, info := mustOpen(t, shcfg, Config{Dir: dir})
	defer func() {
		if err := m2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if info.SnapshotSeq != 2 {
		t.Fatalf("recovered from seq %d, want 2", info.SnapshotSeq)
	}
	if info.ReplayedWrites != 16 {
		t.Fatalf("replayed %d writes, want only the 16 post-checkpoint ones", info.ReplayedWrites)
	}
	for i := uint64(0); i < 48; i++ {
		got, err := m2.Read(i * LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, oracle.Fill(i, 2)) {
			t.Fatalf("line %d mismatch after checkpointed recovery", i)
		}
	}
}

// TestGroupCommitConcurrent hammers one durable memory from many
// goroutines under SyncAlways; under -race this is the group-commit safety
// claim, and the fsync count proves batching actually coalesces commits.
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 4, 1<<15)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	const (
		workers       = 8
		writesPerWork = 40
	)
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writesPerWork; i++ {
				addr := (uint64(w*writesPerWork+i) * LineBytes) % m.MemoryBytes()
				if err := m.Write(addr, oracle.Fill(addr, uint64(w))); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	d := m.Durability()
	if d.Appends != workers*writesPerWork {
		t.Fatalf("appends = %d, want %d", d.Appends, workers*writesPerWork)
	}
	if d.Fsyncs == 0 || d.Fsyncs > d.Appends {
		t.Fatalf("fsyncs = %d with %d appends, want 1..appends", d.Fsyncs, d.Appends)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Every acknowledged write must survive; concurrent writers may have
	// raced on an address, so just verify integrity plus replay count.
	m2, info := mustOpen(t, shcfg, Config{Dir: dir})
	defer func() {
		if err := m2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if info.ReplayedWrites != workers*writesPerWork {
		t.Fatalf("replayed %d writes, want %d", info.ReplayedWrites, workers*writesPerWork)
	}
	if err := m2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncIntervalAndNoneFlushOnClose(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncInterval, SyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			shcfg := testShardConfig(t, 2, 1<<13)
			m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: pol})
			for i := uint64(0); i < 24; i++ {
				if err := m.Write(i*LineBytes, oracle.Fill(i, 5)); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			m2, info := mustOpen(t, shcfg, Config{Dir: dir})
			defer func() {
				if err := m2.Close(); err != nil {
					t.Fatal(err)
				}
			}()
			if info.ReplayedWrites != 24 {
				t.Fatalf("replayed %d writes, want 24", info.ReplayedWrites)
			}
		})
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 1, 1<<12)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	const writes = 10
	for i := uint64(0); i < writes; i++ {
		if err := m.Write(i*LineBytes, oracle.Fill(i, 7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Cut the single shard's segment mid-way through the 8th frame.
	seg := SegmentPath(dir, 1, 0)
	cut := int64(7*wal.WriteFrameBytes + 13)
	if err := os.Truncate(seg, cut); err != nil {
		t.Fatal(err)
	}
	m2, info := mustOpen(t, shcfg, Config{Dir: dir})
	defer func() {
		if err := m2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if info.TornTailCount() != 1 {
		t.Fatalf("torn tails = %d, want 1", info.TornTailCount())
	}
	if info.ReplayedWrites != 7 {
		t.Fatalf("replayed %d writes, want the 7 whole frames", info.ReplayedWrites)
	}
	for i := uint64(0); i < 7; i++ {
		got, err := m2.Read(i * LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, oracle.Fill(i, 7)) {
			t.Fatalf("line %d mismatch after torn-tail recovery", i)
		}
	}
	// The torn writes are gone: those lines read as never written.
	for i := uint64(7); i < writes; i++ {
		got, err := m2.Read(i * LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, LineBytes)) {
			t.Fatalf("line %d survived past the torn tail", i)
		}
	}
	// And the memory accepts new writes after repair.
	if err := m2.Write(7*LineBytes, oracle.Fill(7, 8)); err != nil {
		t.Fatal(err)
	}
}

func TestTamperedSnapshotIsIntegrityError(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 1<<13)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncNone})
	for i := uint64(0); i < 16; i++ {
		if err := m.Write(i*LineBytes, oracle.Fill(i, 9)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	snap := SnapshotPath(dir, 2)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(shcfg, Config{Dir: dir})
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("open with tampered snapshot returned %v, want *secmem.IntegrityError", err)
	}
}

// flipWalFrame flips a payload byte of frame k in a write-only segment and
// recomputes the CRC, modeling an adversary rather than a crash.
func flipWalFrame(t *testing.T, path string, frame int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := frame * wal.WriteFrameBytes
	body := data[off+8 : off+wal.WriteFrameBytes]
	body[30] ^= 0x20
	binary.LittleEndian.PutUint32(data[off+4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTamperedWALIsIntegrityError(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 1, 1<<12)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	for i := uint64(0); i < 8; i++ {
		if err := m.Write(i*LineBytes, oracle.Fill(i, 11)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	flipWalFrame(t, SegmentPath(dir, 1, 0), 3)
	_, _, err := Open(shcfg, Config{Dir: dir})
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("open with tampered WAL returned %v, want *secmem.IntegrityError", err)
	}
	if !strings.Contains(ie.Reason, "tampering") {
		t.Fatalf("reason %q does not name tampering", ie.Reason)
	}
}

func TestRecoveryCleansStaleEpochs(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 1<<13)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncNone})
	for i := uint64(0); i < 16; i++ {
		if err := m.Write(i*LineBytes, oracle.Fill(i, 13)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-checkpoint: stale next-epoch segments and a
	// half-written snapshot temp file exist, but epoch 2's snapshot never
	// renamed into place.
	for i := 0; i < 2; i++ {
		if err := os.WriteFile(SegmentPath(dir, 2, i), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(SnapshotPath(dir, 2)+".tmp", []byte("partial snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	m2, info := mustOpen(t, shcfg, Config{Dir: dir})
	if info.SnapshotSeq != 1 || info.ReplayedWrites != 16 {
		t.Fatalf("info = %+v, want recovery from epoch 1 with 16 writes", info)
	}
	for i := 0; i < 2; i++ {
		if _, err := os.Stat(SegmentPath(dir, 2, i)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("stale segment %d survived recovery: %v", i, err)
		}
	}
	if _, err := os.Stat(SnapshotPath(dir, 2) + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale snapshot temp file survived recovery")
	}
	// A checkpoint after stale-epoch cleanup must not collide with
	// leftover file names.
	if err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentJournalsWritesOnly: a standalone store's segment holds one record
// per write and nothing else, however many overflows and rebases the writes
// caused — replaying the writes regenerates every one of them — across group
// commits and a delta cut alike, and it replays back to every line.
func TestSegmentJournalsWritesOnly(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 1, 1<<12)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncNone})
	// Sweep every line repeatedly: uniform increments saturate the shared
	// morphable counter lines and force overflow re-encryptions.
	const rounds = 100
	nlines := m.MemoryBytes() / LineBytes
	for round := uint64(0); round < rounds; round++ {
		for i := uint64(0); i < nlines; i++ {
			if err := m.Write(i*LineBytes, oracle.Fill(i, round)); err != nil {
				t.Fatal(err)
			}
		}
		commit := m.Flush
		if round == rounds/2 {
			commit = m.CheckpointDelta
		}
		if err := commit(); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	var events uint64
	for l := range st.Overflows {
		events += st.Overflows[l] + st.Rebases[l]
	}
	if events == 0 {
		t.Fatal("uniform sweep workload produced no overflow/rebase events")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	kinds := map[byte]int{}
	if _, err := wal.Replay(SegmentPath(dir, 1, 0), wal.Options{Key: walKey(shcfg.Mem.Key, 0, 1)}, 1, false, func(r wal.Record) error {
		kinds[r.Kind]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := int(rounds * nlines); len(kinds) != 1 || kinds[wal.KindWrite] != want {
		t.Fatalf("after %d overflow/rebase events the segment holds %v records by kind, want %d writes and nothing else", events, kinds, want)
	}
	m2, info := mustOpen(t, shcfg, Config{Dir: dir})
	defer func() {
		if err := m2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if info.ReplayedWrites == 0 || info.ReplayedRecords != info.ReplayedWrites {
		t.Fatalf("replayed %d records / %d writes past the delta, want the same non-zero count", info.ReplayedRecords, info.ReplayedWrites)
	}
	for i := uint64(0); i < nlines; i++ {
		got, err := m2.Read(i * LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, oracle.Fill(i, rounds-1)) {
			t.Fatalf("line %d content lost through replay", i)
		}
	}
}

func TestUseAfterClose(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 1, 1<<12)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := m.Write(0, oracle.Fill(0, 1)); err == nil {
		t.Fatal("write after close succeeded")
	}
	if err := m.Checkpoint(); err == nil {
		t.Fatal("checkpoint after close succeeded")
	}
}

func TestOpenRejectsMismatchedShardConfig(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 4, 1<<13)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	bad := testShardConfig(t, 2, 1<<13)
	_, _, err := Open(bad, Config{Dir: dir})
	var me *shard.MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("open with wrong shard count returned %v, want *shard.MismatchError", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"none", SyncNone}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestSnapshotPathNames(t *testing.T) {
	if got := SnapshotPath("d", 0x2a); got != filepath.Join("d", "snapshot.000000000000002a") {
		t.Fatalf("SnapshotPath = %q", got)
	}
	if got := SegmentPath("d", 3, 12); got != filepath.Join("d", "wal.0000000000000003-0012") {
		t.Fatalf("SegmentPath = %q", got)
	}
	for _, name := range []string{"snapshot.000000000000002a", "wal.0000000000000003-0012"} {
		if _, _, _, ok := parseSeq(name); !ok {
			t.Fatalf("parseSeq(%q) failed", name)
		}
	}
	if _, _, _, ok := parseSeq("garbage"); ok {
		t.Fatal("parseSeq accepted garbage")
	}
	_ = fmt.Sprintf
}

// The interval flusher parks while nothing is journaled — an idle store makes
// no wake-ups, where a 2 ms ticker made fifty in this time — and a write
// still becomes durable within the interval plus an fsync.
func TestIntervalFlusherIdlesAndStillSyncs(t *testing.T) {
	shcfg := testShardConfig(t, 2, 1<<13)
	m, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncInterval, Interval: 2 * time.Millisecond})
	defer func() {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	time.Sleep(100 * time.Millisecond)
	if n := m.flushCycles.Load(); n != 0 {
		t.Fatalf("idle for 100ms: the flusher woke %d times, want 0", n)
	}
	durable := m.DurableSignal()
	idx, lsn, err := m.WriteLSN(3*LineBytes, oracle.Fill(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-durable:
	case <-time.After(5 * time.Second): // the bound is 2ms plus an fsync; this is a hang guard
		t.Fatal("a write under SyncInterval was never synced")
	}
	if got := m.SyncedLSNs()[idx]; got < lsn {
		t.Fatalf("shard %d synced to LSN %d after the durable signal, the write is LSN %d", idx, got, lsn)
	}
	if n := m.flushCycles.Load(); n != 1 {
		t.Fatalf("one write: the flusher woke %d times, want 1", n)
	}
	time.Sleep(50 * time.Millisecond)
	if n := m.flushCycles.Load(); n != 1 {
		t.Fatalf("idle again: the flusher woke %d times in all, want still 1", n)
	}
}

// A flush cycle under load leaves nothing for the collector: the flusher has
// one timer for its life, where a timer a cycle was three allocations every
// 2 ms for as long as writes kept coming.
func TestIntervalFlusherCyclesDoNotAllocate(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	shcfg := testShardConfig(t, 2, 1<<13)
	m, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncInterval, Interval: time.Millisecond})
	defer m.Close()
	line := oracle.Fill(3, 1)
	cycle := func() {
		want := m.flushCycles.Load() + 1
		if err := m.Write(3*LineBytes, line); err != nil {
			t.Fatal(err)
		}
		for m.flushCycles.Load() < want || m.unsynced.Load() {
			time.Sleep(200 * time.Microsecond)
		}
	}
	cycle() // the line's chunk, the timer, this goroutine's sleep timer
	const cycles = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n >= cycles {
		t.Fatalf("%d flush cycles allocated %d times: something is made new every cycle", cycles, n)
	}
}

// Under SyncAlways every write is a whole sync cycle — append, apply, flush,
// fsync — and the flusher runs the same cycle hundreds of times a second on
// every shard. None of it allocates: the WAL seals the frame in place.
func TestSyncCycleWithoutAuditDoesNotAllocate(t *testing.T) {
	if racedetect.Enabled || invariant.Enabled {
		t.Skip("allocation counts mean nothing under the race detector or with morphdebug assertions compiled in")
	}
	m, _ := mustOpen(t, testShardConfig(t, 1, 1<<16), Config{Dir: t.TempDir(), Sync: SyncAlways})
	defer func() {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	// Sixteen lines of one page: their counters stay 16 bits wide in ZCC, so
	// rewriting them overflows nothing for longer than this test runs.
	const lines = 16
	line := oracle.Fill(1, 2)
	var next uint64
	write := func() {
		if err := m.Write(next%lines*LineBytes, line); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < lines; i++ {
		write()
	}
	before := m.Durability()
	if n := testing.AllocsPerRun(200, write); n != 0 {
		t.Errorf("a SyncAlways write — one whole sync cycle — allocates %v times, want 0", n)
	}
	after := m.Durability()
	if after.Fsyncs-before.Fsyncs < 200 {
		t.Fatalf("%d fsyncs over 201 writes: the cycles being counted were not sync cycles", after.Fsyncs-before.Fsyncs)
	}
}
