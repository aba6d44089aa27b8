package durable

import "fmt"

// Live shard migration needs one thing from this layer beyond replication:
// FenceShard stops the donor's writers at cut-over, closing the race between
// a write that passed routing and the hand-off. Fencing takes the same locks
// writes take, so the returned final LSN is exact. The recipient is a
// replica and already journals the shard through ApplyReplicated; it drains
// to the final LSN like any other poll (DESIGN.md, "Live shard migration").
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
