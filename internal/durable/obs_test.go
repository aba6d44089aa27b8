package durable

import (
	"testing"

	"github.com/securemem/morphtree/internal/obs"
)

// TestObsInstrumentation checks the durability layer's histograms, trace
// events, and the RegisterMetrics collector against exact fsync/append
// counts under SyncAlways.
func TestObsInstrumentation(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1024)
	shcfg := testShardConfig(t, 2, 1<<13)
	shcfg.Obs = reg
	shcfg.Tracer = tr
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways, Obs: reg, Tracer: tr})
	defer func() {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	m.RegisterMetrics(reg)

	line := make([]byte, LineBytes)
	const writes = 12
	for i := 0; i < writes; i++ {
		if err := m.Write(uint64(i)*LineBytes, line); err != nil {
			t.Fatal(err)
		}
	}

	st := m.Durability()
	snap := reg.Snapshot()

	fh := snap.Histograms["wal.fsync.latency"]
	if fh.Count != st.Fsyncs {
		t.Fatalf("fsync latency samples = %d, want %d (= Stats.Fsyncs)", fh.Count, st.Fsyncs)
	}
	if fh.Count == 0 || fh.P50 == 0 {
		t.Fatalf("fsync latency histogram empty or zero p50: %+v", fh)
	}
	bh := snap.Histograms["wal.group_commit.batch"]
	if bh.Count != st.Fsyncs {
		t.Fatalf("batch samples = %d, want %d", bh.Count, st.Fsyncs)
	}
	// Every record made durable is counted in exactly one batch: the sum
	// of batch sizes equals the appends.
	if bh.Sum != st.Appends {
		t.Fatalf("batch sum = %d, want appends %d", bh.Sum, st.Appends)
	}
	if got := tr.Count(obs.KindWALFsync); got != st.Fsyncs {
		t.Fatalf("WALFsync events = %d, want %d", got, st.Fsyncs)
	}
	if snap.Counters["durable.appends"] != writes {
		t.Fatalf("durable.appends = %d, want %d", snap.Counters["durable.appends"], writes)
	}
	if snap.Counters["durable.fsyncs"] != st.Fsyncs {
		t.Fatalf("durable.fsyncs = %d, want %d", snap.Counters["durable.fsyncs"], st.Fsyncs)
	}
	// Shard engine collectors came along via RegisterMetrics delegation.
	if snap.Counters["secmem.writes"] != writes {
		t.Fatalf("secmem.writes = %d, want %d", snap.Counters["secmem.writes"], writes)
	}

	// Checkpoint: latency histogram + Snapshot event carrying the epoch.
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	ch := snap.Histograms["durable.checkpoint.latency"]
	if ch.Count != 1 || ch.Max == 0 {
		t.Fatalf("checkpoint latency histogram = %+v, want 1 nonzero sample", ch)
	}
	if got := tr.Count(obs.KindSnapshot); got != 1 {
		t.Fatalf("Snapshot events = %d, want 1", got)
	}
	var saw bool
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindSnapshot {
			saw = true
			if ev.A != m.Seq() {
				t.Fatalf("Snapshot event epoch = %d, want %d", ev.A, m.Seq())
			}
			if ev.Dur <= 0 {
				t.Fatal("Snapshot event has no duration")
			}
		}
	}
	if !saw {
		t.Fatal("no Snapshot event in ring")
	}
	if snap.Counters["durable.seq"] != m.Seq() {
		t.Fatalf("durable.seq = %d, want %d", snap.Counters["durable.seq"], m.Seq())
	}
	if snap.Counters["durable.checkpoints"] != 2 { // bootstrap + explicit
		t.Fatalf("durable.checkpoints = %d, want 2", snap.Counters["durable.checkpoints"])
	}
}

// TestObsGroupCommitBatches checks concurrent SyncAlways writers share
// fsyncs and the batch histogram still accounts for every record.
func TestObsGroupCommitBatches(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	shcfg := testShardConfig(t, 1, 1<<12)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways, Obs: reg})
	defer func() {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	const workers, perWorker = 4, 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			line := make([]byte, LineBytes)
			var err error
			for i := 0; i < perWorker && err == nil; i++ {
				err = m.Write(uint64((w*perWorker+i)%16)*LineBytes, line)
			}
			done <- err
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	bh := snap.Histograms["wal.group_commit.batch"]
	if bh.Sum != workers*perWorker {
		t.Fatalf("batch sum = %d, want %d (every append durable in exactly one batch)", bh.Sum, workers*perWorker)
	}
	if bh.Count != m.Durability().Fsyncs {
		t.Fatalf("batch samples = %d, want %d fsyncs", bh.Count, m.Durability().Fsyncs)
	}
}

// TestObsUninstrumented makes sure the nil-registry path works end to end
// (writes, checkpoint, close) with no instruments attached.
func TestObsUninstrumented(t *testing.T) {
	dir := t.TempDir()
	m, _ := mustOpen(t, testShardConfig(t, 1, 1<<12), Config{Dir: dir, Sync: SyncAlways})
	line := make([]byte, LineBytes)
	for i := 0; i < 4; i++ {
		if err := m.Write(uint64(i)*LineBytes, line); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
