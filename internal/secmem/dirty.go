package secmem

import (
	"bytes"
	"fmt"
)

// Dirty-line tracking: every store mutation stamps the line with the
// engine's current dirty epoch, so an incremental checkpoint can collect
// exactly the lines modified since the last committed collection. A stamp
// lives in its line's chunk, which also keeps the newest of its 64: a write
// pays two stores into a chunk it is writing anyway, and a collection skips
// every chunk untouched since the last one, so its work scales with the
// dirty state, not the capacity (see internal/ckpt and DESIGN.md §17).
//
// The protocol is two-phase so a failed checkpoint never loses dirt:
// CollectDirty snapshots the dirty set under the engine lock and advances
// the current epoch (writes racing the checkpoint land in the NEXT
// collection), but the floor only moves when CommitDirty confirms the
// delta reached stable storage. A crash or write error between the two
// re-collects the same lines next time.

// firstEpoch is a new engine's dirty epoch: a line stamped 0 is always clean.
const firstEpoch uint32 = 1

// DirtyLine is one modified line captured by CollectDirty: Level -1 is a
// data line (Line = ciphertext, MAC set), levels 0..root-1 are stored
// counter lines, and Level == root is the on-chip root's encoding (always
// included — it anchors verification).
type DirtyLine struct {
	Level int32
	Index uint64
	Line  []byte
	MAC   uint64
}

// CollectDirty captures a copy of every line modified since the last
// committed collection (plus the root line, always) and returns the cut
// epoch. The capture runs entirely under the engine lock, so it is a
// consistent point-in-time cut: fn must not call back into the engine.
// Lines written after CollectDirty returns carry a later stamp and belong
// to the next collection. The dirty floor does NOT advance until
// CommitDirty(cut) — if persisting the collection fails, the same lines
// are re-collected.
func (m *Memory) CollectDirty(fn func(DirtyLine)) uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Dirty counter blocks are written back first (see Store), so the cut
	// holds sealed lines only and the root that anchors them.
	_ = m.settle(0)
	cut := m.dirtyCur
	m.dirtyCur++
	fn(DirtyLine{Level: int32(m.geom.RootLevel()), Line: m.root.Encode()})
	for lvl, level := range m.store.levels {
		level.dirty(m.dirtyFloor, func(idx uint64, c *chunk[ctrExt], i uint64) {
			fn(DirtyLine{Level: int32(lvl), Index: idx, Line: bytes.Clone(c.get(i))})
		})
	}
	m.store.data.dirty(m.dirtyFloor, func(d uint64, c *chunk[dataExt], i uint64) {
		fn(DirtyLine{Level: -1, Index: d, Line: bytes.Clone(c.get(i)), MAC: c.ext.mac[i]})
	})
	return cut
}

// CommitDirty marks the collection at cut as durably persisted: lines
// stamped at or below cut are clean from now on.
func (m *Memory) CommitDirty(cut uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cut+1 > m.dirtyFloor {
		m.dirtyFloor = cut + 1
	}
}

// ResetDirty marks the entire current state clean — a full snapshot has
// captured everything, so the next incremental collection starts empty.
func (m *Memory) ResetDirty() {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.settle(0) // a no-op after the snapshot's own write-back
	m.dirtyCur++
	m.dirtyFloor = m.dirtyCur
}

// DirtyCount returns how many lines the next CollectDirty would capture,
// excluding the always-included root line (tests and the checkpoint
// runner's pacing heuristics use it).
func (m *Memory) DirtyCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.settle(0) // as CollectDirty will
	n := 0
	m.store.data.dirty(m.dirtyFloor, func(uint64, *chunk[dataExt], uint64) { n++ })
	for _, level := range m.store.levels {
		level.dirty(m.dirtyFloor, func(uint64, *chunk[ctrExt], uint64) { n++ })
	}
	return n
}

// ApplyDeltaLine installs one line from an authenticated delta segment
// into the store, bypassing the journal: recovery replays deltas onto a
// loaded base snapshot before the WAL tail. The applied line keeps its
// clean stamp (the delta chain already covers it), and any cached trusted
// block for the line is invalidated so later reads re-verify against the
// applied bytes.
func (m *Memory) ApplyDeltaLine(level int32, idx uint64, line []byte, mac uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.settle(0); err != nil {
		return err
	}
	if len(line) != LineBytes {
		return fmt.Errorf("secmem: delta level-%d line is %d bytes, want %d", level, len(line), LineBytes)
	}
	switch {
	case level == int32(m.geom.RootLevel()):
		blk, err := m.cfg.specAt(m.geom.RootLevel()).Decode(line)
		if err != nil {
			return fmt.Errorf("secmem: delta root: %w", err)
		}
		m.root = blk
		return m.flushMetadataCache()
	case level == -1:
		if idx >= m.geom.DataLines {
			return fmt.Errorf("secmem: delta data line %d beyond capacity %d", idx, m.geom.DataLines)
		}
		m.store.SetDataLine(idx, line)
		m.store.SetDataMAC(idx, mac)
	case level >= 0 && int(level) < m.geom.RootLevel():
		if idx >= m.geom.LevelEntries(int(level)) {
			return fmt.Errorf("secmem: delta level-%d line %d beyond level size %d", level, idx, m.geom.LevelEntries(int(level)))
		}
		m.store.SetCounterLine(int(level), idx, line)
		m.store.levels[level].at(idx).ext.blk[idx%chunkLines] = nil
	default:
		return fmt.Errorf("secmem: delta line level %d out of range", level)
	}
	return nil
}
