package secmem

import (
	"encoding/binary"
	"fmt"
)

// Dirty-line tracking: every store mutation stamps the line with the
// engine's current dirty epoch, so an incremental checkpoint can take
// exactly the lines modified since the last committed one. A stamp lives in
// its line's chunk, which also keeps the newest of its 64: a write pays two
// stores into a chunk it is writing anyway, and a checkpoint skips every
// chunk untouched since the last one, so its work scales with the dirty
// state, not the capacity (see internal/ckpt and DESIGN.md §17).
//
// A checkpoint is a cut, and it stops nothing. BeginCut counts the lines
// stamped in [floor, epoch] and advances the epoch: those lines, as they are
// then, are the cut. Drain walks them out, a chunk per hold of the lock.
// Whoever is about to overwrite a line of the cut ahead of the walker first
// saves it to the cut's side log (keep); the stamp it then gets, epoch+1,
// hides it from the walker. So every line of the cut is emitted exactly once,
// the count taken first is the count emitted, and a cut holds in memory only
// the lines overwritten while it drains. The floor moves only at Commit.

// firstEpoch is a new engine's dirty epoch: a line stamped 0 is always clean.
const firstEpoch uint32 = 1

// DirtyLine is one line of a delta segment: Level -1 is a data line (Line =
// ciphertext, MAC set), levels 0..root-1 are stored counter lines, and Level
// == root is the on-chip root's encoding (always there, and first — it
// anchors verification).
type DirtyLine struct {
	Level int32
	Index uint64
	Line  []byte
	MAC   uint64
}

// AppendRecord appends d as a delta record, the layout internal/ckpt
// documents and reads: i32 level | u64 index | u32 len | line | u64 mac.
func (d DirtyLine) AppendRecord(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Level))
	buf = binary.LittleEndian.AppendUint64(buf, d.Index)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.Line)))
	buf = append(buf, d.Line...)
	return binary.LittleEndian.AppendUint64(buf, d.MAC)
}

// Cut is an incremental checkpoint of one engine in progress; see BeginCut.
type Cut struct {
	m            *Memory
	floor, epoch uint32 // the cut is the lines stamped in [floor, epoch] when it began
	n            int    // how many that was, the root included
	// The walker has taken every line of the cut below chunk next of table
	// tbl; the tables are the counter levels in order, then the data.
	tbl   int
	next  uint64
	saved []byte // the side log: the root, then lines overwritten ahead of the walker
	taken int    // records made so far, by the walker and into the side log
}

// BeginCut opens a cut of every line modified since the last committed cut,
// plus the root: a consistent view of the instant it is called, for the cost
// of looking at the chunks touched since — no line is copied. One cut is open
// at a time; Commit or Abort closes it.
func (m *Memory) BeginCut() (*Cut, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cut != nil {
		return nil, fmt.Errorf("secmem: a cut is already open")
	}
	// Write-back first (see Store): a cut holds sealed lines and their root.
	if err := m.settle(0); err != nil {
		return nil, err
	}
	root := DirtyLine{Level: int32(m.geom.RootLevel()), Line: m.root.Encode()}
	m.cut = &Cut{m: m, floor: m.dirtyFloor, epoch: m.dirtyCur, n: 1 + m.dirtyCount(), saved: root.AppendRecord(nil), taken: 1}
	m.dirtyCur++
	return m.cut, nil
}

// N is how many records Drain emits.
func (c *Cut) N() int { return c.n }

// Drain hands emit the cut's N lines as delta records, a chunk's worth at a
// time: the root, then the counter levels and the data in index order, each
// chunk behind whatever the side log took since the last. The engine lock is
// never held across emit. An emit error, or the cut's closing, ends the drain.
func (c *Cut) Drain(emit func(records []byte) error) error {
	var out []byte
	taken := 0
	for done := false; !done; {
		c.m.mu.Lock()
		if c.m.cut != c {
			c.m.mu.Unlock()
			return fmt.Errorf("secmem: cut closed while it drained")
		}
		out, c.saved = c.saved, out[:0]
		out, done = c.step(out)
		taken = c.taken
		c.m.mu.Unlock()
		if err := emit(out); err != nil {
			return err
		}
	}
	if taken != c.n {
		return fmt.Errorf("secmem: cut emitted %d lines, counted %d", taken, c.n)
	}
	return nil
}

// step appends the records of the next chunk that holds lines of the cut and
// moves the walker past it; done says no table is left.
func (c *Cut) step(out []byte) (_ []byte, done bool) {
	switch s := c.m.store; {
	case c.tbl < len(s.levels):
		return takeNext(c, out, int32(c.tbl), s.levels[c.tbl], nil), false
	case c.tbl == len(s.levels):
		return takeNext(c, out, -1, s.data, func(ch *chunk[dataExt]) *[chunkLines]uint64 { return &ch.ext.mac }), false
	}
	return out, true
}

// takeNext moves the walker along t, its current table, to the next chunk
// that may hold lines of the cut and appends a record for each that is (with
// no bytes, as in the freeze this replaced, if the adversary interface removed
// it). It looks at a directory's worth of slots at most, so one hold of the
// lock is bounded whatever the capacity.
func takeNext[X any](c *Cut, out []byte, level int32, t table[X], macs func(*chunk[X]) *[chunkLines]uint64) []byte {
	for budget := dirChunks; budget > 0; budget-- {
		d := c.next / dirChunks
		if d >= uint64(len(t.dirs)) {
			c.tbl, c.next = c.tbl+1, 0
			break
		}
		if t.dirs[d] == nil {
			c.next = (d + 1) * dirChunks
			continue
		}
		ch, base := t.dirs[d][c.next%dirChunks], c.next*chunkLines
		c.next++
		if ch == nil || ch.newest < c.floor {
			continue
		}
		for i := uint64(0); i < chunkLines; i++ {
			if s := ch.stamp[i]; s < c.floor || s > c.epoch {
				continue
			}
			line := DirtyLine{Level: level, Index: base + i, Line: ch.get(i)}
			if macs != nil {
				line.MAC = macs(ch)[i]
			}
			c.taken++
			out = line.AppendRecord(out)
		}
		break
	}
	return out
}

// keep is called with a cut open before a stored line, last stamped stamp, is
// overwritten where it lies: if it is the cut's and the walker has yet to
// reach its chunk, the side log takes it as it is (see the top of this file).
func (c *Cut) keep(stamp uint32, line DirtyLine) {
	tbl := int(line.Level)
	if tbl < 0 {
		tbl = c.m.geom.RootLevel() // the data comes after the counter levels
	}
	if stamp >= c.floor && stamp <= c.epoch && (tbl > c.tbl || tbl == c.tbl && line.Index/chunkLines >= c.next) {
		c.taken++
		c.saved = line.AppendRecord(c.saved)
	}
}

// Commit marks the cut as durably persisted: its lines are clean from now on.
func (c *Cut) Commit() { c.close(c.epoch + 1) }

// Abort leaves the floor where it was: the next cut takes the same lines again.
func (c *Cut) Abort() { c.close(0) }

// close closes the cut, unless something has already, and raises the floor.
func (c *Cut) close(floor uint32) {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	if c.m.cut == c {
		c.m.cut, c.m.dirtyFloor = nil, max(c.m.dirtyFloor, floor)
	}
}

// ResetDirty marks the entire current state clean — a full snapshot has
// captured everything, so the next cut starts empty, and an open one is closed.
func (m *Memory) ResetDirty() {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.settle(0) // a no-op after the snapshot's own write-back
	m.dirtyCur++
	m.dirtyFloor, m.cut = m.dirtyCur, nil
}

// DirtyCount returns how many lines the next cut would take, excluding the
// always-included root line (tests and harnesses assert the O(dirty) claim
// with it).
func (m *Memory) DirtyCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.settle(0) // as BeginCut will
	return m.dirtyCount()
}

func (m *Memory) dirtyCount() int {
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
