package secmem

import (
	"bytes"
	"math/bits"

	"github.com/securemem/morphtree/internal/counters"
	"github.com/securemem/morphtree/internal/tree"
)

const (
	// chunkLines is how many consecutive lines a chunk of the store holds: for
	// data one 4 KB page, which is one MCR counter set and half of what a
	// MorphCtr-128 line covers — the unit of the paper's locality argument.
	chunkLines = 64
	// dirChunks is how many chunks a directory of a table spans (2 MB of
	// lines): an empty table costs 8 bytes per 2 MB it could hold.
	dirChunks = 512
)

// chunk is chunkLines consecutive lines of one table, with what the engine
// keeps per line. The lines themselves are a pointer-free block of exactly
// 4 KiB, allocated with the chunk (grow) but apart from it, so each piece
// fills its allocator size class (TestStoreObjectsFitTheirClasses): as one
// object a data chunk would be 24 bytes over 4 864 and pay for 5 376.
// Pointers come first so the collector reads only the head of a chunk.
type chunk[X any] struct {
	line   *[chunkLines][LineBytes]byte
	ext    X
	has    uint64             // bit i: line[i] is stored
	newest uint32             // the latest of stamp
	stamp  [chunkLines]uint32 // dirty epoch of each line's last store (dirty.go); 0 = never
}

// dataExt is what a data line has besides its ciphertext: its MAC (ECC-chip
// resident, so there when the line is). Its key domain is a function of its
// address (domainOf), so nothing here records it.
type dataExt struct {
	mac [chunkLines]uint64
}

// ctrExt is the engine's side of a counter line: blk[i] is the verified
// decoded block while it is cached, pending flags it as awaiting write-back
// (its stored line is stale), and listed says the chunk is in wb.cached.
type ctrExt struct {
	blk     [chunkLines]counters.Block
	pending uint64
	listed  bool
}

// get returns line i as stored, not a copy, or nil if there is none.
func (c *chunk[X]) get(i uint64) []byte {
	if c == nil || c.has>>i&1 == 0 {
		return nil
	}
	return c.line[i][:]
}

// mark stamps line i with the current dirty epoch, which never decreases.
func (c *chunk[X]) mark(i uint64, epoch uint32) {
	c.stamp[i], c.newest = epoch, epoch
}

// table is a two-level radix of chunks: line idx lives in chunk idx/chunkLines,
// two indexed loads away. A directory or chunk exists once something in it does.
type table[X any] struct {
	dirs []*[dirChunks]*chunk[X]
}

func newTable[X any](entries uint64) table[X] {
	return table[X]{dirs: make([]*[dirChunks]*chunk[X], (entries-1)/(chunkLines*dirChunks)+1)}
}

// at returns the chunk holding line idx, nil if there is none (yet, or ever).
func (t table[X]) at(idx uint64) *chunk[X] {
	n := idx / chunkLines
	if d := n / dirChunks; d < uint64(len(t.dirs)) && t.dirs[d] != nil {
		return t.dirs[d][n%dirChunks]
	}
	return nil
}

// grow is at, allocating the chunk and its lines if there is none. idx is
// within the table.
func (t table[X]) grow(idx uint64) *chunk[X] {
	n := idx / chunkLines
	dir := t.dirs[n/dirChunks]
	if dir == nil {
		dir = new([dirChunks]*chunk[X])
		t.dirs[n/dirChunks] = dir
	}
	if dir[n%dirChunks] == nil {
		dir[n%dirChunks] = &chunk[X]{line: new([chunkLines][LineBytes]byte)}
	}
	return dir[n%dirChunks]
}

// chunks calls fn on every chunk in index order with the index of its first
// line, stopping at the first error.
func (t table[X]) chunks(fn func(base uint64, c *chunk[X]) error) error {
	for d, dir := range t.dirs {
		if dir == nil {
			continue
		}
		for n, c := range dir {
			if c == nil {
				continue
			}
			if err := fn((uint64(d)*dirChunks+uint64(n))*chunkLines, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// stored calls fn on every stored line (line i of c) in index order, stopping
// at the first error.
func (t table[X]) stored(fn func(idx uint64, c *chunk[X], i uint64) error) error {
	return t.chunks(func(base uint64, c *chunk[X]) error {
		for b := c.has; b != 0; b &= b - 1 {
			i := uint64(bits.TrailingZeros64(b))
			if err := fn(base+i, c, i); err != nil {
				return err
			}
		}
		return nil
	})
}

// set stores a copy of raw, a whole line, as line idx, or removes the line if
// !ok.
func (t table[X]) set(idx uint64, raw []byte, ok bool) {
	if i := idx % chunkLines; ok {
		c := t.grow(idx)
		c.line[i], c.has = [LineBytes]byte(raw), c.has|1<<i
	} else if c := t.at(idx); c != nil {
		c.has &^= 1 << i
	}
}

// flip flips one bit of stored line idx and reports whether the line existed.
func (t table[X]) flip(idx uint64, byteOff int, bit uint) bool {
	raw := t.at(idx).get(idx % chunkLines)
	if raw == nil {
		return false
	}
	raw[byteOff%len(raw)] ^= 1 << (bit % 8)
	return true
}

// Store is the untrusted off-chip memory: data cachelines, their MACs, and
// every integrity-tree level except the on-chip root, each a paged table.
// Nothing here is trusted — the engine verifies everything it reads back (and
// keeps what it verified in ctrExt, which no method below touches). The
// mutation methods double as the adversary interface for attack simulations:
// they model an attacker with physical access to the DIMM.
type Store struct {
	data   table[dataExt]
	levels []table[ctrExt] // level 0 = encryption counters; the root is not stored off-chip
}

func newStore(geom *tree.Geometry) *Store {
	s := &Store{data: newTable[dataExt](geom.DataLines), levels: make([]table[ctrExt], geom.RootLevel())}
	for l := range s.levels {
		s.levels[l] = newTable[ctrExt](geom.LevelEntries(l))
	}
	return s
}

// DataLine returns a copy of the stored ciphertext of a data line, if
// present. It is a copy because the engine overwrites stored lines in place:
// what an adversary captured must stay what it was when captured, whatever
// is written afterwards.
func (s *Store) DataLine(idx uint64) ([]byte, bool) {
	raw := s.data.at(idx).get(idx % chunkLines)
	return bytes.Clone(raw), raw != nil
}

// SetDataLine overwrites a data line's ciphertext (adversary interface).
func (s *Store) SetDataLine(idx uint64, ct []byte) { s.data.set(idx, ct, true) }

// DataMAC returns the stored MAC of a data line, if the line is present.
func (s *Store) DataMAC(idx uint64) (uint64, bool) {
	if c, i := s.data.at(idx), idx%chunkLines; c.get(i) != nil {
		return c.ext.mac[i], true
	}
	return 0, false
}

// SetDataMAC overwrites a data line's MAC (adversary interface). The MAC of
// a line that is not stored shows once the line is.
func (s *Store) SetDataMAC(idx uint64, m uint64) { s.data.grow(idx).ext.mac[idx%chunkLines] = m }

// CounterLine returns a copy (see DataLine) of the stored encoding of a
// counter line at a level (0 = encryption counters, 1.. = tree levels).
func (s *Store) CounterLine(level int, idx uint64) ([]byte, bool) {
	raw := s.levels[level].at(idx).get(idx % chunkLines)
	return bytes.Clone(raw), raw != nil
}

// SetCounterLine overwrites a counter line (adversary interface).
func (s *Store) SetCounterLine(level int, idx uint64, raw []byte) {
	s.levels[level].set(idx, raw, true)
}

// StoredLevels returns how many counter levels live off-chip.
func (s *Store) StoredLevels() int { return len(s.levels) }

// Tuple is a {data, MAC, counter-chain} snapshot an adversary can capture
// and later replay — the attack integrity trees exist to defeat
// (Section II-A4).
type Tuple struct {
	dataIdx  uint64
	data     []byte
	dataOK   bool
	mac      uint64
	counters []counterSnapshot
}

type counterSnapshot struct {
	level int
	idx   uint64
	raw   []byte
	ok    bool
}

// Snapshot captures the stored state backing one data line: its ciphertext,
// MAC, and the counter line at every off-chip level on its verification
// path. chain lists (level, index) pairs, typically from Memory.Path.
func (s *Store) Snapshot(dataIdx uint64, chain [][2]uint64) Tuple {
	t := Tuple{dataIdx: dataIdx}
	t.data, t.dataOK = s.DataLine(dataIdx)
	t.mac, _ = s.DataMAC(dataIdx)
	for _, c := range chain {
		cs := counterSnapshot{level: int(c[0]), idx: c[1]}
		cs.raw, cs.ok = s.CounterLine(cs.level, cs.idx)
		t.counters = append(t.counters, cs)
	}
	return t
}

// Replay writes a previously captured tuple back into the store — the
// classic replay attack of substituting a stale but self-consistent
// {data, MAC, counter} set. What the tuple found absent is removed.
func (s *Store) Replay(t Tuple) {
	s.data.set(t.dataIdx, t.data, t.dataOK)
	s.SetDataMAC(t.dataIdx, t.mac)
	for _, cs := range t.counters {
		s.levels[cs.level].set(cs.idx, cs.raw, cs.ok)
	}
}

// FlipBit flips one bit of a stored data line (adversary interface).
// It reports whether the line existed.
func (s *Store) FlipBit(dataIdx uint64, byteOff int, bit uint) bool {
	return s.data.flip(dataIdx, byteOff, bit)
}

// FlipCounterBit flips one bit of a stored counter line.
func (s *Store) FlipCounterBit(level int, idx uint64, byteOff int, bit uint) bool {
	return s.levels[level].flip(idx, byteOff, bit)
}
