package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/wal"
)

// fill writes every line of m once, with write seq's pattern.
func fill(t testing.TB, m *Memory, seq uint64) {
	t.Helper()
	for a := uint64(0); a < m.MemoryBytes(); a += LineBytes {
		if err := m.Write(a, oracle.Fill(a, seq)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFullCheckpointUnderWriters writes a 16 MiB store's every line, then cuts
// a full Checkpoint while a writer on every shard keeps writing lines of its
// own: the writers must get writes acknowledged on every shard while the image
// is written — a freeze of every shard for the whole image lets through none —
// and after Close and Open every acknowledged write reads back, judged by one
// oracle.History a writer.
func TestFullCheckpointUnderWriters(t *testing.T) {
	const shards, minAcked = 2, 100
	dir := t.TempDir()
	shcfg := testShardConfig(t, shards, 16<<20)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncNone})
	fill(t, m, 0) // the pattern of no write: what a line holds before its first acknowledged one

	var checkpointing atomic.Bool
	acked := make([]atomic.Uint64, shards)
	histories := make([]*oracle.History, shards)
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for s := range histories {
		histories[s] = oracle.New(oracle.Unknown)
		writers.Add(1)
		go func(s int, h *oracle.History) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				addr := (uint64(rng.Intn(4096))*shards + uint64(s)) * LineBytes
				seq, line := h.Invoke(addr)
				during := checkpointing.Load()
				err := m.Write(addr, line)
				h.Settle(addr, seq, err)
				if err != nil {
					t.Error(err)
					return
				}
				if during && checkpointing.Load() {
					acked[s].Add(1)
				}
			}
		}(s, histories[s])
	}
	time.Sleep(10 * time.Millisecond) // the writers are writing
	checkpointing.Store(true)
	start := time.Now()
	err := m.Checkpoint()
	took := time.Since(start)
	checkpointing.Store(false)
	close(stop)
	writers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for s := range acked {
		if n := acked[s].Load(); n < minAcked {
			t.Errorf("shard %d acknowledged %d writes during a %v full checkpoint, want at least %d", s, n, took, minAcked)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	re, info := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncNone})
	defer re.Close()
	if info.SnapshotSeq != 2 {
		t.Fatalf("recovered from epoch %d, want the full checkpoint's 2", info.SnapshotSeq)
	}
	for s, h := range histories {
		if audit := h.Audit(re.Read); audit.Bad() != 0 || audit.Verified == 0 {
			t.Fatalf("shard %d after Close and Open: %s", s, audit)
		}
	}
}

// failRotation makes m's next full Checkpoint fail after every shard rotated:
// a directory stands where its snapshot is renamed to. It returns the
// checkpoint's epoch.
func failRotation(t *testing.T, m *Memory) uint64 {
	t.Helper()
	seq := m.Seq() + 1
	block := SnapshotPath(m.cfg.Dir, seq)
	if err := os.MkdirAll(filepath.Join(block, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err == nil {
		t.Fatal("a snapshot renamed onto a directory reported success")
	}
	if err := os.RemoveAll(block); err != nil {
		t.Fatal(err)
	}
	return seq
}

// rotatedDir leaves in a new directory what a crash between a full
// checkpoint's rotations and its rename does: epoch-1 segments, and epoch-2
// segments that hold records, for 2 shards of 64 KiB. It returns the
// directory, the config and the addresses written.
func rotatedDir(t *testing.T) (string, Config, []uint64) {
	t.Helper()
	cfg := Config{Dir: t.TempDir(), Sync: SyncAlways}
	m, _ := mustOpen(t, testShardConfig(t, 2, 64<<10), cfg)
	addrs := writeSome(t, m, 1, 40)
	if seq := failRotation(t, m); seq != 2 {
		t.Fatalf("the failed checkpoint was epoch %d, want 2", seq)
	}
	addrs = append(addrs, writeSome(t, m, 50, 40)...)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return cfg.Dir, cfg, addrs
}

// TestRotatedSegmentsReplayInOrder: recovery from a full checkpoint that
// rotated every shard and then failed replays the base's segments and the
// next epoch's, in order, reopens the next epoch's for append, and the next
// full checkpoint's epoch is one past them. A gap between two segments, or a
// torn tail with a later segment's record behind it, refuses recovery with
// an integrity error; a torn tail of the last one is truncated.
func TestRotatedSegmentsReplayInOrder(t *testing.T) {
	shcfg := testShardConfig(t, 2, 64<<10)
	dir, cfg, addrs := rotatedDir(t)
	want, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncNone})
	defer want.Close()
	writeSome(t, want, 1, 40)
	writeSome(t, want, 50, 40)

	m, info := mustOpen(t, shcfg, cfg)
	if info.SnapshotSeq != 1 || info.ReplayedRecords != 80 || info.TornTailCount() != 0 {
		t.Fatalf("recovered epoch %d, %d writes replayed, %d torn; want 1, 80, 0", info.SnapshotSeq, info.ReplayedRecords, info.TornTailCount())
	}
	verifyAddrs(t, m, want, addrs)
	for s := 0; s < 2; s++ {
		if _, err := os.Stat(SegmentPath(dir, 2, s)); err != nil {
			t.Fatalf("shard %d's epoch-2 segment did not survive recovery: %v", s, err)
		}
	}
	addrs = append(addrs, writeSome(t, m, 90, 10)...)
	writeSome(t, want, 90, 10)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if m.Seq() != 3 {
		t.Fatalf("the checkpoint after recovery is epoch %d, want 3", m.Seq())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	re, _ := mustOpen(t, shcfg, cfg)
	verifyAddrs(t, re, want, addrs)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		surgery func(dir string) error
		refuse  bool
	}{
		{"gap: the next epoch's first record gone", func(dir string) error {
			return editFile(SegmentPath(dir, 2, 0), func(b []byte) []byte { return b[wal.WriteFrameBytes:] })
		}, true},
		{"the old segment cut mid-frame before the next epoch's records", func(dir string) error {
			return editFile(SegmentPath(dir, 1, 0), func(b []byte) []byte { return b[:len(b)-wal.WriteFrameBytes/2] })
		}, true},
		{"a torn frame after the old segment's last, before the next epoch's records", func(dir string) error {
			return editFile(SegmentPath(dir, 1, 0), func(b []byte) []byte { return append(b, b[:wal.WriteFrameBytes/2]...) })
		}, true},
		{"the last segment torn", func(dir string) error {
			return editFile(SegmentPath(dir, 2, 0), func(b []byte) []byte { return b[:len(b)-wal.WriteFrameBytes/2] })
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, cfg, _ := rotatedDir(t)
			if err := tc.surgery(dir); err != nil {
				t.Fatal(err)
			}
			m, info, err := Open(shcfg, cfg)
			var ie *secmem.IntegrityError
			switch {
			case tc.refuse && !errors.As(err, &ie):
				t.Fatalf("recovery returned %v, want an integrity error", err)
			case !tc.refuse && err != nil:
				t.Fatal(err)
			case !tc.refuse:
				defer m.Close()
				if info.TornTailCount() != 1 || info.ReplayedRecords == 0 {
					t.Fatalf("%d torn tails, %d writes replayed", info.TornTailCount(), info.ReplayedRecords)
				}
			}
		})
	}
}

// TestDeltaCoversARotatedSegment: a delta cut after a full checkpoint that
// failed covers all of each shard's base segment and part of the one it
// rotated to. Recovery counts the base segment from its size and reads only
// the tail past the delta. A partial frame inside that covered prefix, with
// the next segment's records behind it, is still an integrity error, and a
// last segment that ends inside the prefix a *wal.ShortSegmentError.
func TestDeltaCoversARotatedSegment(t *testing.T) {
	const tail = 10
	shcfg := testShardConfig(t, 2, 64<<10)
	build := func(t *testing.T, m *Memory) {
		writeSome(t, m, 1, 40)
		failRotation(t, m)
		writeSome(t, m, 50, 40)
		if err := m.CheckpointDelta(); err != nil {
			t.Fatal(err)
		}
		writeSome(t, m, 90, tail)
	}
	want, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncNone})
	defer want.Close()
	writeSome(t, want, 1, 40)
	writeSome(t, want, 50, 40)
	writeSome(t, want, 90, tail)
	dir := func(t *testing.T) Config {
		cfg := Config{Dir: t.TempDir(), Sync: SyncAlways}
		m, _ := mustOpen(t, shcfg, cfg)
		build(t, m)
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		return cfg
	}

	cfg := dir(t)
	m, info := mustOpen(t, shcfg, cfg)
	if info.DeltasApplied != 1 || info.ReplayedRecords != tail || info.FramesAuthenticated != tail || info.BytesRead != tail*wal.WriteFrameBytes {
		t.Fatalf("recovered %d deltas, %d writes replayed from %d frames authenticated in %d bytes; want 1 and the %d-write tail's",
			info.DeltasApplied, info.ReplayedRecords, info.FramesAuthenticated, info.BytesRead, tail)
	}
	for s, covered := range info.CoveredLSN {
		if st, err := os.Stat(SegmentPath(cfg.Dir, 1, s)); err != nil || uint64(st.Size()/wal.WriteFrameBytes) >= covered {
			t.Fatalf("shard %d's base segment does not end inside the %d records the delta covers: %v", s, covered, err)
		}
	}
	var all []uint64
	for a := uint64(0); a < m.MemoryBytes(); a += LineBytes {
		all = append(all, a)
	}
	verifyAddrs(t, want, m, all)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		surgery func(dir string) error
		refused func(error) bool
	}{
		{"the base segment cut mid-frame inside the covered prefix", func(dir string) error {
			return editFile(SegmentPath(dir, 1, 0), func(b []byte) []byte { return b[:len(b)-wal.WriteFrameBytes/2] })
		}, isIntegrityError},
		{"the next epoch's segment cut inside the covered prefix", func(dir string) error {
			return editFile(SegmentPath(dir, 2, 0), func(b []byte) []byte { return b[:wal.WriteFrameBytes] })
		}, func(err error) bool { var se *wal.ShortSegmentError; return errors.As(err, &se) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := dir(t)
			if err := tc.surgery(cfg.Dir); err != nil {
				t.Fatal(err)
			}
			if m, _, err := Open(shcfg, cfg); !tc.refused(err) {
				if m != nil {
					m.Close()
				}
				t.Fatalf("recovery returned %v", err)
			}
		})
	}
}

// TestFailedRotationAcknowledgesNothing: a rotation whose old segment cannot
// be fsynced has already swapped the shard onto its new segment, and from
// then on no write of that shard is acknowledged, nor a checkpoint cut: a
// group commit of the new segment alone would vouch for records the old one
// may have lost. Reopening recovers every write acknowledged before.
func TestFailedRotationAcknowledgesNothing(t *testing.T) {
	shcfg := testShardConfig(t, 2, 64<<10)
	cfg := Config{Dir: t.TempDir(), Sync: SyncAlways}
	m, _ := mustOpen(t, shcfg, cfg)
	addrs := writeSome(t, m, 1, 40)
	want, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncNone})
	defer want.Close()
	writeSome(t, want, 1, 40)

	// Shard 0's segment file is closed under it, so the rotation's fsync of
	// the old segment fails after the swap.
	if err := m.commits[0].log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err == nil {
		t.Fatal("a checkpoint whose rotation could not fsync the old segment reported success")
	}
	if m.commits[0].seq != 2 {
		t.Fatalf("shard 0 is on epoch %d's segment, want the rotated-to 2", m.commits[0].seq)
	}
	synced := m.SyncedLSNs()[0]
	for a := uint64(0); a < 8*LineBytes; a += LineBytes {
		if idx, _, _ := m.sh.Locate(a); idx == 0 {
			if err := m.Write(a, oracle.Fill(a, 99)); err == nil {
				t.Fatalf("a write to shard 0 at %#x was acknowledged after its rotation failed", a)
			}
		}
	}
	for _, cut := range []func() error{m.CheckpointDelta, m.Checkpoint} {
		if err := cut(); err == nil {
			t.Fatal("a checkpoint was cut after shard 0's rotation failed")
		}
	}
	if got := m.SyncedLSNs()[0]; got != synced {
		t.Fatalf("shard 0's durable LSN moved from %d to %d after its rotation failed", synced, got)
	}
	if err := m.Close(); err == nil {
		t.Fatal("Close flushed shard 0 as if its rotation had not failed")
	}

	re, info := mustOpen(t, shcfg, cfg)
	defer re.Close()
	if info.SnapshotSeq != 1 {
		t.Fatalf("recovered epoch %d, want 1", info.SnapshotSeq)
	}
	verifyAddrs(t, re, want, addrs)
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// editFile replaces the file at path with what edit makes of its bytes.
func editFile(path string, edit func([]byte) []byte) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return os.WriteFile(path, edit(data), 0o644)
}

// TestReadRecordsFollowsTheLiveSegment polls a shard whose tail it drops
// before each poll, so every poll reads a segment: between a shard's rotation and the snapshot's
// rename — here a rename that fails, and then full checkpoints cut back to
// back under a writer — a poll gets the records past its cursor, contiguous
// and as written, or ok=false; never an error, never another segment's. A
// cursor in the segment a failed checkpoint rotated past is served from it,
// up to its end, until a full checkpoint renames.
func TestReadRecordsFollowsTheLiveSegment(t *testing.T) {
	shcfg := testShardConfig(t, 2, 64<<10)
	m, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncAlways})
	defer m.Close()
	// Write seq goes to shard 0's line seq%512 and carries seq's pattern, so
	// a record says which write it is.
	at := func(seq uint64) uint64 { return (seq % 512) * 2 * LineBytes }
	write := func(seq uint64) error {
		return m.Write(at(seq), oracle.Fill(at(seq), seq))
	}
	// check polls past after and holds what comes back to what was written;
	// n is how many records came. It drops shard 0's tail first, and no write
	// fills it again before the poll, so the poll is served from a segment.
	check := func(after uint64) (n int, ok bool) {
		c := m.commits[0]
		c.mu.Lock()
		c.polled, c.tail = false, [len(c.tail)]*[tailChunk]tailSlot{}
		c.mu.Unlock()
		recs, ok, err := readRecords(m, 0, after, 64)
		if err != nil {
			t.Errorf("poll after %d: %v", after, err)
		}
		for i, r := range recs {
			seq := binary.LittleEndian.Uint64(r.Line) ^ r.Addr
			if r.LSN != after+1+uint64(i) || r.Addr != at(seq) || !bytes.Equal(r.Line, oracle.Fill(r.Addr, seq)) {
				t.Errorf("poll after %d: record %d is LSN %d at %#x, not a write journaled there", after, i, r.LSN, r.Addr)
				break
			}
		}
		return len(recs), ok
	}
	for seq := uint64(1); seq <= 80; seq++ {
		if seq == 41 {
			failRotation(t, m)
		}
		if err := write(seq); err != nil {
			t.Fatal(err)
		}
	}
	for _, after := range []uint64{0, 30} {
		if n, ok := check(after); !ok || n != int(40-after) {
			t.Fatalf("a poll of the rotated-past segment after %d got %d records, ok=%v", after, n, ok)
		}
	}
	for _, after := range []uint64{40, 60} {
		if n, ok := check(after); !ok || n != int(80-after) {
			t.Fatalf("a poll of the live segment after %d got %d records, ok=%v", after, n, ok)
		}
	}

	// A writer writes and a poller polls just behind it while full
	// checkpoints are cut back to back.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served atomic.Int64
	wg.Add(2)
	go func() {
		defer wg.Done()
		for seq := uint64(81); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := write(seq); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			lsn := m.SyncedLSNs()[0]
			if n, _ := check(lsn - min(lsn, i%20*3)); n > 0 {
				served.Add(1)
			}
		}
	}()
	for full := 0; full < 6; full++ {
		if err := m.Checkpoint(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no poll was served records")
	}
}

// BenchmarkCheckpointStall is a checkpoint as a writer meets it: a two-shard
// 16 MiB morph128 store with every line written, one writer writing while a
// full Checkpoint (full) or a CheckpointDelta of the same dirty lines (delta)
// runs. ns/op is the checkpoint's duration, stall-ns/op the longest one write
// waited while it ran, the median over the checkpoints.
func BenchmarkCheckpointStall(b *testing.B) {
	for _, arm := range []struct {
		name string
		cut  func(*Memory) error
	}{{"full", (*Memory).Checkpoint}, {"delta", (*Memory).CheckpointDelta}} {
		b.Run(arm.name, func(b *testing.B) {
			m, _ := mustOpen(b, testShardConfig(b, 2, 16<<20), Config{Dir: b.TempDir(), Sync: SyncNone})
			defer m.Close()
			benchStall(b, m, m.MemoryBytes()/LineBytes, func() { fill(b, m, 1) }, func() error { return arm.cut(m) })
		})
	}
}
