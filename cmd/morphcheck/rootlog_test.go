package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/shard"
)

// The root transparency log's two crash rows (ROADMAP 14(b)). The log is
// memory-only: a restarted store starts one of size 0, so a pinned auditor
// finds it shrunk after any restart, and a directory restored from an older
// checkpoint is caught only by that accident. Both rows are skipped until the
// log is persisted beside the epoch chain (14(a)).

// loggedStore opens dir as morphserve does with a transparency log: every
// full checkpoint publishes the combined root of the shards.
func loggedStore(t *testing.T, shcfg shard.Config, dir string) (*durable.Memory, *proof.Authority) {
	t.Helper()
	m, _, err := durable.Open(shcfg, durable.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a, err := proof.NewAuthority(proof.DeriveAuthoritySeed(shcfg.Mem.Key))
	if err != nil {
		t.Fatal(err)
	}
	m.OnCheckpoint(func(uint64) { a.Publish(proof.CombineRoots(m.RootDigests())) })
	return m, a
}

// extends is a pinned auditor's check (morphaudit): the log's head now must
// extend the pinned one.
func extends(a *proof.Authority, pinned proof.SignedHead) error {
	now := a.Head()
	if now.Size < pinned.Size {
		return fmt.Errorf("log shrank: pinned size %d, now %d", pinned.Size, now.Size)
	}
	path, err := a.ConsistencyProof(pinned.Size, now.Size)
	if err != nil {
		return err
	}
	return proof.VerifyConsistency(pinned.Size, pinned.Hash, now.Size, now.Hash, path)
}

// checkpoints writes a line and cuts a full checkpoint, n times.
func checkpoints(t *testing.T, m *durable.Memory, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := m.Write(0, oracle.Fill(0, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRootLogSurvivesRestart is the restart row: an auditor pinned before a
// kill must find the recovered store's log extending what it pinned.
func TestRootLogSurvivesRestart(t *testing.T) {
	t.Skip("ROADMAP 14: the root transparency log is memory-only, so a restarted store's log starts at size 0")
	shcfg, err := shardConfig("morph128", 2, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m, a := loggedStore(t, shcfg, dir)
	checkpoints(t, m, 3)
	pinned := a.Head()
	// The kill: m is dropped, not closed.
	re, ra := loggedStore(t, shcfg, dir)
	defer re.Close()
	checkpoints(t, re, 1)
	if err := extends(ra, pinned); err != nil {
		t.Fatalf("the auditor pinned before the kill refuses the recovered store: %v", err)
	}
}

// TestRootLogCatchesARolledBackDir is the rollback_dir row: a copy of the data
// directory from checkpoint k, restored after checkpoint k+3, must be refused
// by an auditor pinned at k+3.
func TestRootLogCatchesARolledBackDir(t *testing.T) {
	t.Skip("ROADMAP 14: the root transparency log is memory-only, so a rolled-back directory is refused only because every restart is")
	shcfg, err := shardConfig("morph128", 2, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m, a := loggedStore(t, shcfg, dir)
	checkpoints(t, m, 2)
	old := filepath.Join(t.TempDir(), "k")
	if err := cloneDir(dir, old); err != nil {
		t.Fatal(err)
	}
	checkpoints(t, m, 3)
	pinned := a.Head()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := cloneDir(old, dir); err != nil {
		t.Fatal(err)
	}
	re, ra := loggedStore(t, shcfg, dir)
	defer re.Close()
	checkpoints(t, re, 1)
	if err := extends(ra, pinned); err == nil {
		t.Fatal("the auditor pinned at k+3 accepted a directory restored from k")
	}
}
