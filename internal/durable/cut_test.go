package durable

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
)

// TestDeltaCutUnderWriters cuts deltas back to back while a writer on every
// shard keeps overwriting a few pages of it — a hot line among them, so sets
// overflow and re-encrypt under the cut — and then crashes: the Memory is
// abandoned, not closed. Every write was acknowledged after its fsync, so
// recovery from the base, the delta chain and the WAL tail must read every
// one of them back, which it cannot if a cut ever took a line as it was at
// any instant but the one its covered LSN names. One cut in the middle is
// made to fail after its drain; it must leave no cut open, and what was
// overwritten while it drained must be in the delta after it.
func TestDeltaCutUnderWriters(t *testing.T) {
	const shards, writes = 4, 700
	dir := t.TempDir()
	shcfg := testShardConfig(t, shards, 4<<20)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})

	shadow, written := startWriters(t, m, shards, writes, nil)

	cuts, failed := 0, false
	for running := true; running; {
		select {
		case <-written:
			running = false // one more cut, with nothing writing
		default:
		}
		if cuts == 3 && !failed {
			// A non-empty directory where the delta is renamed to: the file
			// is drained, written and synced, and then the cut fails.
			failed = true
			// A delta of a store nobody wrote to since the last one cuts
			// nothing and so cannot fail; on a loaded machine the writers may
			// not have got a write in. This line is no writer's.
			if err := m.Write(1000*shards*LineBytes, oracle.Fill(0, 1)); err != nil {
				t.Fatal(err)
			}
			block := ckpt.DeltaPath(dir, m.Seq()+1, m.Seq())
			if err := os.MkdirAll(filepath.Join(block, "x"), 0o755); err != nil {
				t.Fatal(err)
			}
			seq := m.Seq()
			if err := m.CheckpointDelta(); err == nil {
				t.Fatal("a delta renamed onto a directory reported success")
			}
			if m.Seq() != seq {
				t.Fatalf("a failed delta moved the epoch from %d to %d", seq, m.Seq())
			}
			for i, c := range m.commits {
				cut, err := c.eng.BeginCut()
				if err != nil {
					t.Fatalf("shard %d after a failed delta: %v", i, err)
				}
				cut.Abort()
			}
			if err := os.RemoveAll(block); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := m.CheckpointDelta(); err != nil {
			t.Fatal(err)
		}
		cuts++
	}
	// A call that finds nothing written since the last cuts nothing, so count
	// the deltas, not the calls.
	cuts = int(m.Durability().DeltaCheckpoints)
	if !failed || cuts < 5 {
		t.Fatalf("%d deltas cut while the writers ran, failure injected: %v; want at least 5 and one failure", cuts, failed)
	}
	if t.Failed() {
		return
	}

	// Crash: m is dropped as it is. Its files stay open until the test ends.
	re, info, err := Open(shcfg, Config{Dir: dir, Sync: SyncAlways, VerifyAll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if info.DeltasApplied != cuts {
		t.Fatalf("recovery applied %d deltas, %d were cut", info.DeltasApplied, cuts)
	}
	checkShadow(t, re, shadow)
}

// startWriters starts a writer on every shard of m, each overwriting a few
// pages of its shard, writes times or until stop closes — a hot line among
// them, so sets overflow and re-encrypt — and returns each writer's shadow
// (address → the seq of its last acknowledged write; read it once written is
// closed) and written.
func startWriters(t *testing.T, m *Memory, shards, writes uint64, stop chan struct{}) (shadow []map[uint64]uint64, written chan struct{}) {
	shadow = make([]map[uint64]uint64, shards)
	var writers sync.WaitGroup
	for s := uint64(0); s < shards; s++ {
		shadow[s] = map[uint64]uint64{}
		writers.Add(1)
		go func(s uint64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for seq := uint64(1); seq <= writes; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				local := uint64(rng.Intn(512)) // eight pages of the shard
				if rng.Intn(4) == 0 {
					local = 3
				}
				addr := (local*shards + s) * LineBytes
				if err := m.Write(addr, oracle.Fill(addr, seq)); err != nil {
					t.Error(err)
					return
				}
				shadow[s][addr] = seq
			}
		}(s)
	}
	written = make(chan struct{})
	go func() { writers.Wait(); close(written) }()
	return shadow, written
}

// checkShadow reads every writer's last acknowledged write back from m.
func checkShadow(t *testing.T, m *Memory, shadow []map[uint64]uint64) {
	t.Helper()
	for s := range shadow {
		for addr, seq := range shadow[s] {
			got, err := m.Read(addr)
			if err != nil {
				t.Fatalf("read %#x after recovery: %v", addr, err)
			}
			if !bytes.Equal(got, oracle.Fill(addr, seq)) {
				t.Fatalf("line %#x of shard %d does not read back its last acknowledged write", addr, s)
			}
		}
	}
}

// TestImagesUnderWritersAndCuts takes full images while the writers write and
// deltas are cut back to back: an engine's full image (WriteRecords, what
// secmem.Save writes) holds no checkpoint lock and meets cuts open and
// draining; a full Checkpoint freezes the shards in the middle of it all.
// Every image must load and verify; then the Memory is abandoned, not closed,
// and recovery — from the full checkpoint, whatever deltas followed it and the
// WAL tail — must read every acknowledged write back.
func TestImagesUnderWritersAndCuts(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	shcfg := testShardConfig(t, shards, 4<<20)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	stop := make(chan struct{})
	shadow, written := startWriters(t, m, shards, 1<<20, stop)

	cutting := make(chan struct{})
	go func() {
		defer close(cutting)
		for full := false; ; {
			select {
			case <-written:
				return
			default:
			}
			// The full checkpoint goes after four deltas that cut something
			// (a call that finds nothing written cuts nothing): epoch 6.
			cut := m.CheckpointDelta
			if !full && m.Durability().DeltaCheckpoints >= 4 {
				cut, full = m.Checkpoint, true
			}
			if err := cut(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	images := 0
	for running := true; running && !t.Failed(); images++ {
		select {
		case <-written:
			running = false // one more of each, with nothing writing
		default:
			if st := m.Durability(); st.Checkpoints >= 2 && st.DeltaCheckpoints >= 8 && images >= 8 {
				close(stop)
				<-written
			}
		}
		loaded, err := shard.New(shcfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shards; i++ {
			var image bytes.Buffer
			if err := m.Sharded().Shard(i).WriteRecords(&image); err != nil {
				t.Fatal(err)
			}
			if err := secmem.ReadRecords(&image, loaded.Shard(i).Apply); err != nil {
				t.Fatal(err)
			}
		}
		if err := loaded.VerifyAll(); err != nil {
			t.Fatal(err)
		}
	}
	<-cutting
	if t.Failed() {
		return
	}
	// Crash: m is dropped as it is. Its files stay open until the test ends.
	re, info, err := Open(shcfg, Config{Dir: dir, Sync: SyncAlways, VerifyAll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if info.SnapshotSeq < 6 {
		t.Fatalf("recovery started from snapshot %d, not from the full checkpoint cut under the writers", info.SnapshotSeq)
	}
	checkShadow(t, re, shadow)
}

// BenchmarkDeltaCut is the benchmark's periodic checkpoint as a go-test row: a
// two-shard 64 MiB morph128 store with 32 768 lines dirty — 33 028 with their
// counter lines and the roots — cut while one writer keeps writing. ns/op and
// B/op are CheckpointDelta's. stall-ns/op is the stall as a client meets it:
// the longest any one write took while the cut ran, which is the longest the
// cut held a lock of a shard plus the write itself, the median over the cuts.
func BenchmarkDeltaCut(b *testing.B) {
	const span, shards = 1 << 15, 2
	m, _ := mustOpen(b, testShardConfig(b, shards, 64<<20), Config{Dir: b.TempDir(), Sync: SyncNone})
	defer m.Close()
	line := oracle.Fill(0, 1)
	stalls := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for d := uint64(0); d < span; d++ {
			if err := m.Write(d*LineBytes, line); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.Flush(); err != nil { // the cut syncs the journal it covers: not 32 768 records of set-up
			b.Fatal(err)
		}
		stop, longest := make(chan struct{}), make(chan time.Duration)
		go func() {
			var worst time.Duration
			for d := uint64(0); ; d = (d + 7919) % span {
				select {
				case <-stop:
					longest <- worst
					return
				default:
				}
				start := time.Now()
				if err := m.Write(d*LineBytes, line); err != nil {
					b.Error(err)
				}
				worst = max(worst, time.Since(start))
			}
		}()
		b.StartTimer()
		err := m.CheckpointDelta()
		b.StopTimer()
		close(stop)
		stalls = append(stalls, <-longest)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	sort.Slice(stalls, func(i, j int) bool { return stalls[i] < stalls[j] })
	b.ReportMetric(float64(stalls[len(stalls)/2].Nanoseconds()), "stall-ns/op")
}
