package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wire"
)

func testShardConfig(t *testing.T, n int, memBytes uint64) shard.Config {
	t.Helper()
	enc, tree, err := shard.Organization("morph128")
	if err != nil {
		t.Fatal(err)
	}
	return shard.Config{
		Shards: n,
		Mem: secmem.Config{
			MemoryBytes: memBytes,
			Enc:         enc,
			Tree:        tree,
			Key:         testKey,
		},
	}
}

func openDurable(t *testing.T, dir string, shards int, memBytes uint64, cfg durable.Config) (*durable.Memory, *durable.RecoveryInfo) {
	t.Helper()
	cfg.Dir = dir
	m, info, err := durable.Open(testShardConfig(t, shards, memBytes), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, info
}

// TestCheckpointOpRequiresDurableEngine: a volatile server answers
// OpCheckpoint with a StatusError that tells the operator what to do.
func TestCheckpointOpRequiresDurableEngine(t *testing.T) {
	sh := testShards(t, 2, 1<<13)
	addr, shutdown := startServer(t, sh, Config{})
	defer shutdown()
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Checkpoint()
	var re *wire.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("checkpoint on volatile server returned %v, want *wire.RemoteError", err)
	}
	if !strings.Contains(re.Msg, "data-dir") {
		t.Fatalf("error %q does not tell the operator about -data-dir", re.Msg)
	}
}

// TestCheckpointOpEndToEnd forces a checkpoint over the wire, keeps
// writing, and proves a post-crash reopen recovers from the forced
// snapshot plus the short WAL tail.
func TestCheckpointOpEndToEnd(t *testing.T) {
	dir := t.TempDir()
	m, _ := openDurable(t, dir, 2, 1<<13, durable.Config{Sync: durable.SyncAlways})
	addr, shutdown := startServer(t, m, Config{})
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 16; i++ {
		if err := c.Write(i*durable.LineBytes, oracle.Fill(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("forced checkpoint seq = %d, want 2", seq)
	}
	for i := uint64(16); i < 24; i++ {
		if err := c.Write(i*durable.LineBytes, oracle.Fill(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	shutdown()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, info := openDurable(t, dir, 2, 1<<13, durable.Config{})
	defer m2.Close()
	if info.SnapshotSeq != 2 {
		t.Fatalf("recovered from snapshot %d, want the forced one (2)", info.SnapshotSeq)
	}
	if info.ReplayedWrites != 8 {
		t.Fatalf("replayed %d writes, want only the 8 after the forced checkpoint", info.ReplayedWrites)
	}
	for i := uint64(0); i < 24; i++ {
		got, err := m2.Read(i * durable.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, oracle.Fill(i, 3)) {
			t.Fatalf("line %d mismatch after recovery", i)
		}
	}
}

// TestGracefulShutdownFlushes: with fsync disabled entirely (SyncNone),
// appends sit in process-local buffers; the server's shutdown path must
// still push them into the WAL files so a graceful stop loses nothing.
func TestGracefulShutdownFlushes(t *testing.T) {
	dir := t.TempDir()
	m, _ := openDurable(t, dir, 2, 1<<13, durable.Config{Sync: durable.SyncNone})
	addr, shutdown := startServer(t, m, Config{})
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const writes = 20
	for i := uint64(0); i < writes; i++ {
		if err := c.Write(i*durable.LineBytes, oracle.Fill(i, 4)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	shutdown() // Serve's drain path flushes the durable engine

	// Clone the data dir BEFORE m.Close() (which also flushes): the clone
	// holds exactly what the server's own shutdown flush made durable.
	clone := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(clone, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, info := openDurable(t, clone, 2, 1<<13, durable.Config{})
	defer m2.Close()
	if info.ReplayedWrites != writes {
		t.Fatalf("clone replayed %d writes, want %d: server shutdown did not flush", info.ReplayedWrites, writes)
	}
}

// TestPeriodicSnapshotTicker: the background checkpointer's snapshot cadence
// cuts checkpoints while the server runs.
func TestPeriodicSnapshotTicker(t *testing.T) {
	dir := t.TempDir()
	m, _ := openDurable(t, dir, 2, 1<<13, durable.Config{Sync: durable.SyncAlways})
	addr, shutdown := startServer(t, m, Config{Logf: t.Logf})
	r := ckpt.NewRunner(m, 0, 20*time.Millisecond, 0, func(err error) { t.Errorf("periodic checkpoint: %v", err) })
	defer func() {
		shutdown()
		r.Stop()
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for i := uint64(0); m.Seq() < 3; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("snapshot seq still %d after 10s of 20ms ticks", m.Seq())
		}
		if err := c.Write((i%64)*durable.LineBytes, oracle.Fill(i, 6)); err != nil {
			t.Fatal(err)
		}
	}
}
