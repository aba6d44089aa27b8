package durable

// Accessors only this package's tests want.

// SegSeq returns the epoch of the live WAL segments — the base snapshot
// of the current delta chain.
func (m *Memory) SegSeq() uint64 { return m.segSeq.Load() }

// MemoryBytes returns the total protected capacity.
func (m *Memory) MemoryBytes() uint64 { return m.sh.MemoryBytes() }
