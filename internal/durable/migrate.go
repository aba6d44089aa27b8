package durable

import (
	"fmt"
	"io"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/wal"
)

// Live shard migration primitives. The cluster layer drives the protocol
// (spill → ship → tail catch-up → fence → cut-over); this file owns the
// pieces that must see committer internals:
//
//   - SaveShardStream freezes one shard, makes its journal prefix durable,
//     and streams the engine state through the authenticated ckpt codec.
//   - InstallShardStream adopts such a stream on the recipient, verified
//     before a single byte goes live, and repositions the shard's
//     committer at the donor's mark.
//   - ApplyMigrated applies tail records donated after the mark without
//     journaling them (the recipient's cut-over checkpoint makes the whole
//     shard durable in one atomic step; until then a crash simply aborts
//     the migration and recovers local pre-migration state).
//   - FenceShard stops the donor's writers at cut-over, closing the race
//     between a write that passed routing and the hand-off: fencing takes
//     the same locks writes take, so the returned final LSN is exact.
//
// A fenced shard rejects writes with *ShardFencedError; the cluster layer
// translates that into the MOVED routing error clients already follow.

// ShardFencedError reports a write to a shard this node handed away.
type ShardFencedError struct {
	Shard int
}

func (e *ShardFencedError) Error() string {
	return fmt.Sprintf("durable: shard %d is fenced (migrated away)", e.Shard)
}

// SaveShardStream freezes shardIdx, fsyncs its journal, and writes the
// shard engine's state to w through the authenticated stream codec. It
// returns the mark: the shard's last LSN, which the streamed state covers
// exactly — tail catch-up starts at mark+1. Callers pass a local spill
// file as w so the freeze lasts only as long as a local sequential write.
func (m *Memory) SaveShardStream(shardIdx int, w io.Writer) (uint64, error) {
	if m.closed.Load() {
		return 0, fmt.Errorf("durable: save shard after Close")
	}
	if shardIdx < 0 || shardIdx >= len(m.commits) {
		return 0, fmt.Errorf("durable: shard %d out of range [0, %d)", shardIdx, len(m.commits))
	}
	c := m.commits[shardIdx]
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.fsyncLocked(m); err != nil {
		return 0, err
	}
	mark := c.lsn
	sw, err := ckpt.NewStreamWriter(w, hibernateKey(m.shcfg.Mem.Key), ckpt.HibernateContext)
	if err != nil {
		return 0, err
	}
	if err := c.eng.Save(sw); err != nil {
		return 0, err
	}
	if err := sw.Close(); err != nil {
		return 0, err
	}
	return mark, nil
}

// InstallShardStream replaces shardIdx's engine state with a
// SaveShardStream stream and repositions the committer at mark. The
// stream is fully decoded and its MAC trailer verified before anything is
// adopted, so a forged or truncated ship leaves the recipient untouched.
//
// Nothing is persisted here: the installed state lives in memory (stamped
// dirty, so any checkpoint that does run captures it) until the cut-over
// takes a full Checkpoint. A crash before that point recovers the
// recipient's pre-migration state — the migration aborts, it never
// half-lands.
func (m *Memory) InstallShardStream(shardIdx int, r io.Reader, mark uint64) error {
	if m.closed.Load() {
		return fmt.Errorf("durable: install shard after Close")
	}
	if shardIdx < 0 || shardIdx >= len(m.commits) {
		return fmt.Errorf("durable: shard %d out of range [0, %d)", shardIdx, len(m.commits))
	}
	sr, err := ckpt.NewStreamReader(r, hibernateKey(m.shcfg.Mem.Key), ckpt.HibernateContext)
	if err != nil {
		return err
	}
	c := m.commits[shardIdx]
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	staged, err := c.eng.StageRestore(sr)
	if err != nil {
		return err
	}
	// Everything decoded; now verify the whole-stream MAC before adopting.
	if err := sr.Drain(); err != nil {
		return err
	}
	c.eng.CommitRestore(staged)
	c.lsn = mark
	c.synced = mark
	c.baseLSN = mark
	c.ring = nil
	c.ringStart = 0
	// Audit baselines resume from the installed engine's totals so the
	// next audit record counts only post-install events.
	c.auditedOv, c.auditedRb = c.eng.OverflowRebaseTotals()
	return nil
}

// ApplyMigrated applies donated tail records (LSNs after the install
// mark) to shardIdx without journaling them. Records must continue the
// shard's LSN sequence exactly; a gap is a protocol violation.
func (m *Memory) ApplyMigrated(shardIdx int, recs []wal.Record) error {
	if m.closed.Load() {
		return fmt.Errorf("durable: apply after Close")
	}
	if shardIdx < 0 || shardIdx >= len(m.commits) {
		return fmt.Errorf("durable: shard %d out of range [0, %d)", shardIdx, len(m.commits))
	}
	c := m.commits[shardIdx]
	c.syncMu.Lock() // guards synced, which SyncedLSNs reads from the puller
	defer c.syncMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range recs {
		if r.LSN != c.lsn+1 {
			return fmt.Errorf("durable: migrated record LSN %d for shard %d, want %d (migration gap)", r.LSN, shardIdx, c.lsn+1)
		}
		if r.Kind == wal.KindWrite {
			if err := m.sh.Write(r.Addr, r.Line); err != nil {
				return err
			}
			c.writes++
		}
		c.lsn = r.LSN
	}
	c.synced = c.lsn
	return nil
}

// FenceShard stops writes to shardIdx: it drains in-flight writers (by
// taking the same locks they hold), fsyncs the journal, marks the shard
// fenced, and returns the final LSN — the exact point the recipient must
// catch up to before owning the shard. Idempotent.
func (m *Memory) FenceShard(shardIdx int) (uint64, error) {
	if shardIdx < 0 || shardIdx >= len(m.commits) {
		return 0, fmt.Errorf("durable: shard %d out of range [0, %d)", shardIdx, len(m.commits))
	}
	c := m.commits[shardIdx]
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.fsyncLocked(m); err != nil {
		return 0, err
	}
	c.fenced = true
	return c.lsn, nil
}

// UnfenceShard reopens a fenced shard for writes (migration abort, or a
// promotion that makes this node own everything again).
func (m *Memory) UnfenceShard(shardIdx int) {
	if shardIdx < 0 || shardIdx >= len(m.commits) {
		return
	}
	c := m.commits[shardIdx]
	c.mu.Lock()
	c.fenced = false
	c.mu.Unlock()
}
