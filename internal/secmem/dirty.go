package secmem

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
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
//
// The walk and the record it emits are also how a full image leaves the
// engine (WriteRecords in persist.go): the same walker over the stored lines
// instead of the stamped ones, to completion under one hold of the lock.

// firstEpoch is a new engine's dirty epoch: a line stamped 0 is always clean.
const firstEpoch uint32 = 1

// DirtyLine is one line of a state stream: Level -1 is a data line (Line =
// ciphertext, MAC set), levels 0..root-1 are stored counter lines, and Level
// == root is the on-chip root's encoding (always there, and ahead of the
// lines — it anchors verification). A full image opens with one more,
// configLevel, naming the organization it was taken from (see WriteRecords).
type DirtyLine struct {
	Level int32
	Index uint64
	Line  []byte
	MAC   uint64
}

const (
	recordHead    = 4 + 8 + 4                  // level, index, len
	recordBytes   = recordHead + LineBytes + 8 // a cacheline's record
	recordLineMax = 4096                       // sanity cap on a record's length field
	batchLines    = 512                        // records ReadRecords hands over at a time
)

// AppendRecord appends d as a record of a state stream:
// i32 level | u64 index | u32 len | line | u64 mac, integers little-endian.
func (d DirtyLine) AppendRecord(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Level))
	buf = binary.LittleEndian.AppendUint64(buf, d.Index)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.Line)))
	buf = append(buf, d.Line...)
	return binary.LittleEndian.AppendUint64(buf, d.MAC)
}

// readRecord is AppendRecord's inverse: it reads one record from r through
// room, which the record's line then aliases unless it is longer than a
// cacheline (a full image's first record may be).
func readRecord(r io.Reader, room *[recordBytes]byte) (d DirtyLine, err error) {
	if _, err := io.ReadFull(r, room[:recordHead]); err != nil {
		return d, err
	}
	d.Level, d.Index = int32(binary.LittleEndian.Uint32(room[:])), binary.LittleEndian.Uint64(room[4:])
	n := binary.LittleEndian.Uint32(room[12:])
	if n > recordLineMax {
		return d, fmt.Errorf("secmem: record line length %d exceeds %d", n, recordLineMax)
	}
	body := room[recordHead:]
	if n > LineBytes {
		body = make([]byte, n+8)
	}
	if _, err := io.ReadFull(r, body[:n+8]); err != nil {
		return d, unexpectedEOF(err)
	}
	if d.MAC = binary.LittleEndian.Uint64(body[n:]); n > 0 {
		d.Line = body[:n:n]
	}
	return d, nil
}

// unexpectedEOF is err, or io.ErrUnexpectedEOF where err says the input
// merely ended: inside a record or a count, it ended early.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadRecords reads one engine's share of a state stream — a u64 count, then
// that many records — and hands fn the records a batch at a time. The batch
// is reused: fn must not keep it or its lines. Nothing has authenticated the
// count, so nothing larger than a batch is sized by it: a count the input
// cannot honour ends in io.ErrUnexpectedEOF (or in whatever the reader makes
// of its own end).
func ReadRecords(r io.Reader, fn func(batch []DirtyLine) error) error {
	var count [8]byte
	if _, err := io.ReadFull(r, count[:]); err != nil {
		return fmt.Errorf("secmem: record count: %w", unexpectedEOF(err))
	}
	n := binary.LittleEndian.Uint64(count[:])
	batch := make([]DirtyLine, 0, min(n, batchLines))
	room := make([][recordBytes]byte, cap(batch))
	for n > 0 {
		batch = batch[:0]
		for ; n > 0 && len(batch) < cap(batch); n-- {
			d, err := readRecord(r, &room[len(batch)])
			if err != nil {
				return fmt.Errorf("secmem: record: %w", unexpectedEOF(err))
			}
			batch = append(batch, d)
		}
		if err := fn(batch); err != nil {
			return err
		}
	}
	return nil
}

// picker says which lines of a chunk a walk takes, as a bit a line, from the
// chunk's stored bits, its newest stamp and its stamps.
type picker func(has uint64, newest uint32, stamp *[chunkLines]uint32) uint64

// stored picks the lines a chunk holds: a full image.
func stored(has uint64, _ uint32, _ *[chunkLines]uint32) uint64 { return has }

// stamped picks the lines stamped in [floor, epoch], stored or not: a delta.
func stamped(floor, epoch uint32) picker {
	return func(_ uint64, newest uint32, stamp *[chunkLines]uint32) (take uint64) {
		if newest < floor {
			return 0
		}
		for i, s := range stamp {
			if s >= floor && s <= epoch {
				take |= 1 << i
			}
		}
		return take
	}
}

// count is how many lines of s pick takes.
func (s *Store) count(pick picker) (n int) {
	for _, level := range s.levels {
		_ = level.chunks(func(_ uint64, c *chunk[ctrExt]) error {
			n += bits.OnesCount64(pick(c.has, c.newest, &c.stamp))
			return nil
		})
	}
	_ = s.data.chunks(func(_ uint64, c *chunk[dataExt]) error {
		n += bits.OnesCount64(pick(c.has, c.newest, &c.stamp))
		return nil
	})
	return n
}

// walker is a place in the store's one order: the counter levels in turn,
// then the data, each by index. It has taken every line below chunk next of
// table tbl.
type walker struct {
	tbl  int
	next uint64
}

// step appends the records of the next chunk that holds lines pick takes and
// moves the walker past it; n is how many, and done says no table is left.
func (w *walker) step(s *Store, pick picker, out []byte) (_ []byte, n int, done bool) {
	switch {
	case w.tbl < len(s.levels):
		out, n = takeNext(w, pick, out, int32(w.tbl), s.levels[w.tbl], nil)
	case w.tbl == len(s.levels):
		out, n = takeNext(w, pick, out, -1, s.data, func(ch *chunk[dataExt]) *[chunkLines]uint64 { return &ch.ext.mac })
	default:
		done = true
	}
	return out, n, done
}

// takeNext moves the walker along t, its current table, to the next chunk
// that holds lines pick takes and appends a record for each (with no bytes if
// the line is stamped but the adversary interface removed it). It looks at a
// directory's worth of slots at most, so one hold of the lock is bounded
// whatever the capacity.
func takeNext[X any](w *walker, pick picker, out []byte, level int32, t table[X], macs func(*chunk[X]) *[chunkLines]uint64) ([]byte, int) {
	for budget := dirChunks; budget > 0; budget-- {
		d := w.next / dirChunks
		if d >= uint64(len(t.dirs)) {
			w.tbl, w.next = w.tbl+1, 0
			break
		}
		if t.dirs[d] == nil {
			w.next = (d + 1) * dirChunks
			continue
		}
		ch, base := t.dirs[d][w.next%dirChunks], w.next*chunkLines
		w.next++
		if ch == nil {
			continue
		}
		take := pick(ch.has, ch.newest, &ch.stamp)
		for b := take; b != 0; b &= b - 1 {
			i := uint64(bits.TrailingZeros64(b))
			line := DirtyLine{Level: level, Index: base + i, Line: ch.get(i)}
			if macs != nil {
				line.MAC = macs(ch)[i]
			}
			out = line.AppendRecord(out)
		}
		if take != 0 {
			return out, bits.OnesCount64(take)
		}
	}
	return out, 0
}

// Cut is an incremental checkpoint of one engine in progress; see BeginCut.
type Cut struct {
	m            *Memory
	floor, epoch uint32 // the cut is the lines stamped in [floor, epoch] when it began
	pick         picker // stamped(floor, epoch)
	n            int    // how many that was, the root included
	walker              // where the drain has got to
	saved        []byte // the side log: the root, then lines overwritten ahead of the walker
	out          []byte // what the drain last emitted; the two swap, and are the engine's again at close
	taken        int    // records made so far, by the walker and into the side log
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
	pick := stamped(m.dirtyFloor, m.dirtyCur)
	m.cut = &Cut{m: m, floor: m.dirtyFloor, epoch: m.dirtyCur, pick: pick, n: 1 + m.store.count(pick), saved: m.rootRecord(m.cutBufs[0][:0]), out: m.cutBufs[1], taken: 1}
	m.cutBufs = [2][]byte{} // the cut's until close hands them back
	m.dirtyCur++
	return m.cut, nil
}

// rootRecord appends the on-chip root's record.
func (m *Memory) rootRecord(buf []byte) []byte {
	return DirtyLine{Level: int32(m.geom.RootLevel()), Line: m.root.Encode()}.AppendRecord(buf)
}

// N is how many records Drain emits.
func (c *Cut) N() int { return c.n }

// Drain hands emit the cut's N lines as records, a chunk's worth at a time:
// the root, then the counter levels and the data in index order, each chunk
// behind whatever the side log took since the last. The engine lock is never
// held across emit. An emit error, or the cut's closing, ends the drain.
func (c *Cut) Drain(emit func(records []byte) error) error {
	taken := 0
	for done := false; !done; {
		c.m.mu.Lock()
		if c.m.cut != c {
			c.m.mu.Unlock()
			return fmt.Errorf("secmem: cut closed while it drained")
		}
		c.out, c.saved = c.saved, c.out[:0]
		var n int
		c.out, n, done = c.step(c.m.store, c.pick, c.out)
		c.taken += n
		taken = c.taken
		c.m.mu.Unlock()
		if err := emit(c.out); err != nil {
			return err
		}
	}
	if taken != c.n {
		return fmt.Errorf("secmem: cut emitted %d lines, counted %d", taken, c.n)
	}
	return nil
}

// WriteRecords writes the cut as one engine's share of a state stream, the
// count and then the records Drain emits (what ReadRecords reads).
func (c *Cut) WriteRecords(w io.Writer) error {
	if _, err := w.Write(binary.LittleEndian.AppendUint64(nil, uint64(c.n))); err != nil {
		return err
	}
	return c.Drain(func(records []byte) error {
		_, err := w.Write(records)
		return err
	})
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
		c.m.cutBufs = [2][]byte{c.saved, c.out}
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
	return m.store.count(stamped(m.dirtyFloor, m.dirtyCur))
}
