package durable

import (
	"sync"

	"github.com/securemem/morphtree/internal/secmem"
)

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

// fullCuts opens a full cut of every shard's engine, each a ckpt.DeltaShard:
// its full image. The caller aborts them.
func (m *Memory) fullCuts() ([]*secmem.Cut, error) {
	cuts := make([]*secmem.Cut, m.sh.NumShards())
	for i := range cuts {
		var err error
		if cuts[i], err = m.sh.Shard(i).BeginFullCut(); err != nil {
			return nil, err
		}
	}
	return cuts, nil
}

// parkPersist parks m's next checkpoint file write as it begins: parked is
// closed once it is parked, and it goes on when release is called (which
// may be called more than once). Set it before the checkpoint starts.
func (m *Memory) parkPersist() (parked <-chan struct{}, release func()) {
	p, r := make(chan struct{}), make(chan struct{})
	var once sync.Once
	m.persisting = func() {
		m.persisting = nil // under ckptMu: the next cut is not parked
		close(p)
		<-r
	}
	return p, func() { once.Do(func() { close(r) }) }
}
