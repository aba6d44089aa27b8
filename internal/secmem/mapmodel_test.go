package secmem

import (
	"bytes"
	"encoding/binary"
	"sort"
)

// mapStore is the store the engine had before the paged line table: every line
// in a Go map. It stays here as the oracle the table is tested against
// (linetable_test.go): same calls, same answers. It is verbatim but for its
// name and for Tuple.macOK, which the table made the same thing as dataOK: a
// MAC is stored with its line (the test histories never part them).
type mapStore struct {
	data    map[uint64][]byte // data line index -> ciphertext
	dataMAC map[uint64]uint64 // data line index -> MAC (ECC-chip resident)
	levels  []map[uint64][]byte
}

// newMapStore allocates storage for numLevels counter levels (level 0 =
// encryption counters; the root level is not stored off-chip).
func newMapStore(numLevels int) *mapStore {
	s := &mapStore{
		data:    make(map[uint64][]byte),
		dataMAC: make(map[uint64]uint64),
		levels:  make([]map[uint64][]byte, numLevels),
	}
	for i := range s.levels {
		s.levels[i] = make(map[uint64][]byte)
	}
	return s
}

// DataLine returns a copy of the stored ciphertext of a data line, if
// present. It is a copy because the engine overwrites stored lines in place:
// what an adversary captured must stay what it was when captured, whatever
// is written afterwards.
func (s *mapStore) DataLine(idx uint64) ([]byte, bool) {
	ct, ok := s.data[idx]
	return bytes.Clone(ct), ok
}

// SetDataLine overwrites a data line's ciphertext (adversary interface).
func (s *mapStore) SetDataLine(idx uint64, ct []byte) {
	s.data[idx] = bytes.Clone(ct)
}

// DataMAC returns the stored MAC of a data line.
func (s *mapStore) DataMAC(idx uint64) (uint64, bool) {
	m, ok := s.dataMAC[idx]
	return m, ok
}

// SetDataMAC overwrites a data line's MAC (adversary interface).
func (s *mapStore) SetDataMAC(idx uint64, m uint64) { s.dataMAC[idx] = m }

// CounterLine returns a copy (see DataLine) of the stored encoding of a
// counter line at a level (0 = encryption counters, 1.. = tree levels).
func (s *mapStore) CounterLine(level int, idx uint64) ([]byte, bool) {
	raw, ok := s.levels[level][idx]
	return bytes.Clone(raw), ok
}

// SetCounterLine overwrites a counter line (adversary interface).
func (s *mapStore) SetCounterLine(level int, idx uint64, raw []byte) {
	s.levels[level][idx] = bytes.Clone(raw)
}

// StoredLevels returns how many counter levels live off-chip.
func (s *mapStore) StoredLevels() int { return len(s.levels) }

// Snapshot captures the stored state backing one data line: its ciphertext,
// MAC, and the counter line at every off-chip level on its verification
// path. chain lists (level, index) pairs, typically from Memory.Path.
func (s *mapStore) Snapshot(dataIdx uint64, chain [][2]uint64) Tuple {
	t := Tuple{dataIdx: dataIdx}
	if ct, ok := s.data[dataIdx]; ok {
		t.data, t.dataOK = bytes.Clone(ct), true
	}
	t.mac = s.dataMAC[dataIdx]
	for _, c := range chain {
		level, idx := int(c[0]), c[1]
		cs := counterSnapshot{level: level, idx: idx}
		if raw, ok := s.levels[level][idx]; ok {
			cs.raw, cs.ok = bytes.Clone(raw), true
		}
		t.counters = append(t.counters, cs)
	}
	return t
}

// Replay writes a previously captured tuple back into the store — the
// classic replay attack of substituting a stale but self-consistent
// {data, MAC, counter} set.
func (s *mapStore) Replay(t Tuple) {
	if t.dataOK {
		s.data[t.dataIdx] = bytes.Clone(t.data)
	} else {
		delete(s.data, t.dataIdx)
	}
	if t.dataOK {
		s.dataMAC[t.dataIdx] = t.mac
	} else {
		delete(s.dataMAC, t.dataIdx)
	}
	for _, cs := range t.counters {
		if cs.ok {
			s.levels[cs.level][cs.idx] = bytes.Clone(cs.raw)
		} else {
			delete(s.levels[cs.level], cs.idx)
		}
	}
}

// FlipBit flips one bit of a stored data line (adversary interface).
// It reports whether the line existed.
func (s *mapStore) FlipBit(dataIdx uint64, byteOff int, bit uint) bool {
	ct, ok := s.data[dataIdx]
	if !ok {
		return false
	}
	ct[byteOff%len(ct)] ^= 1 << (bit % 8)
	return true
}

// FlipCounterBit flips one bit of a stored counter line.
func (s *mapStore) FlipCounterBit(level int, idx uint64, byteOff int, bit uint) bool {
	raw, ok := s.levels[level][idx]
	if !ok {
		return false
	}
	raw[byteOff%len(raw)] ^= 1 << (bit % 8)
	return true
}

// modelOf copies what a table-backed store holds into the map model.
func modelOf(s *Store) *mapStore {
	ms := newMapStore(len(s.levels))
	_ = s.data.chunks(func(base uint64, c *chunk[dataExt]) error {
		for i := uint64(0); i < chunkLines; i++ {
			if raw := c.get(i); raw != nil {
				ms.data[base+i], ms.dataMAC[base+i] = bytes.Clone(raw), c.ext.mac[i]
			}
		}
		return nil
	})
	for l, level := range s.levels {
		_ = level.stored(func(idx uint64, c *chunk[ctrExt], i uint64) error {
			ms.levels[l][idx] = bytes.Clone(c.line[i][:])
			return nil
		})
	}
	return ms
}

// mapEngine is the rest of what the engine kept per line before the table:
// the map store plus one dirty stamp per line of capacity, in flat arrays
// sized at construction and scanned end to end by every collection. Its
// save, collect and dirtyCount are the map store's Save, CollectDirty (the
// freeze a cut replaced) and DirtyCount bodies, so the table's bytes and
// orders can be held against them.
type mapEngine struct {
	*mapStore
	dirtyData  []uint32
	dirtyCtr   [][]uint32
	cur, floor uint32
}

func newMapEngine(m *Memory) *mapEngine {
	e := &mapEngine{mapStore: newMapStore(m.geom.RootLevel()), cur: 1, floor: 1}
	e.dirtyData = make([]uint32, m.geom.DataLines)
	e.dirtyCtr = make([][]uint32, m.geom.RootLevel())
	for lvl := range e.dirtyCtr {
		e.dirtyCtr[lvl] = make([]uint32, m.geom.LevelEntries(lvl))
	}
	return e
}

// save is Save over the maps: m supplies the header, the configuration and
// the root, the maps every stored line, in the store's one order.
func (e *mapEngine) save(m *Memory, w *bytes.Buffer) {
	n := 2 + len(e.data)
	for _, level := range e.levels {
		n += len(level)
	}
	out := binary.LittleEndian.AppendUint64(AppendHeader(nil, persistMagic, persistVersion), uint64(n))
	out = DirtyLine{Level: configLevel, Index: m.cfg.MemoryBytes, Line: []byte(m.configFingerprint())}.AppendRecord(out)
	out = m.rootRecord(out)
	for lvl, level := range e.levels {
		for _, k := range sortedKeys(level) {
			out = DirtyLine{Level: int32(lvl), Index: k, Line: level[k]}.AppendRecord(out)
		}
	}
	for _, idx := range sortedKeys(e.data) {
		out = DirtyLine{Level: -1, Index: idx, Line: e.data[idx], MAC: e.dataMAC[idx]}.AppendRecord(out)
	}
	w.Write(out)
}

func sortedKeys(m map[uint64][]byte) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// collect is the map store's CollectDirty after its root line: a scan of every stamp.
func (e *mapEngine) collect(fn func(DirtyLine)) uint32 {
	cut := e.cur
	e.cur++
	for lvl, stamps := range e.dirtyCtr {
		for idx, s := range stamps {
			if s < e.floor {
				continue
			}
			raw := e.levels[lvl][uint64(idx)]
			fn(DirtyLine{Level: int32(lvl), Index: uint64(idx), Line: append([]byte(nil), raw...)})
		}
	}
	for idx, s := range e.dirtyData {
		if s < e.floor {
			continue
		}
		d := uint64(idx)
		fn(DirtyLine{Level: -1, Index: d, Line: append([]byte(nil), e.data[d]...), MAC: e.dataMAC[d]})
	}
	return cut
}

func (e *mapEngine) dirtyCount() int {
	n := 0
	for _, stamps := range e.dirtyCtr {
		for _, s := range stamps {
			if s >= e.floor {
				n++
			}
		}
	}
	for _, s := range e.dirtyData {
		if s >= e.floor {
			n++
		}
	}
	return n
}
