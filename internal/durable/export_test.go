package durable

import "github.com/securemem/morphtree/internal/secmem"

// Accessors only this package's tests want.

// BaseSeq returns the epoch of the base snapshot of the current delta chain.
func (m *Memory) BaseSeq() uint64 { return m.baseSeq.Load() }

// MemoryBytes returns the total protected capacity.
func (m *Memory) MemoryBytes() uint64 { return m.sh.MemoryBytes() }

// freeze takes every shard's locks — sync locks first, then append locks,
// matching syncTo's ordering — and returns what releases them: the state and
// the journals stand still in between. No checkpoint does this any more; a
// test holds the whole store still with it.
func (m *Memory) freeze() (thaw func()) {
	for _, c := range m.commits {
		c.syncMu.Lock()
	}
	for _, c := range m.commits {
		c.mu.Lock()
	}
	return func() {
		for i := len(m.commits) - 1; i >= 0; i-- {
			m.commits[i].mu.Unlock()
		}
		for i := len(m.commits) - 1; i >= 0; i-- {
			m.commits[i].syncMu.Unlock()
		}
	}
}

// engines lists the shards' engines, each a ckpt.DeltaShard: its full image.
func (m *Memory) engines() []*secmem.Memory {
	engs := make([]*secmem.Memory, m.sh.NumShards())
	for i := range engs {
		engs[i] = m.sh.Shard(i)
	}
	return engs
}
