package secmem

import "bytes"

// Store is the untrusted off-chip memory: data cachelines, their MACs, and
// every integrity-tree level except the on-chip root. Nothing here is
// trusted — the engine verifies everything it reads back. The mutation
// methods double as the adversary interface for attack simulations: they
// model an attacker with physical access to the DIMM.
type Store struct {
	data    map[uint64][]byte // data line index -> ciphertext
	dataMAC map[uint64]uint64 // data line index -> MAC (ECC-chip resident)
	levels  []map[uint64][]byte
}

// newStore allocates storage for numLevels counter levels (level 0 =
// encryption counters; the root level is not stored off-chip).
func newStore(numLevels int) *Store {
	s := &Store{
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
func (s *Store) DataLine(idx uint64) ([]byte, bool) {
	ct, ok := s.data[idx]
	return bytes.Clone(ct), ok
}

// SetDataLine overwrites a data line's ciphertext (adversary interface).
func (s *Store) SetDataLine(idx uint64, ct []byte) {
	s.data[idx] = bytes.Clone(ct)
}

// DataMAC returns the stored MAC of a data line.
func (s *Store) DataMAC(idx uint64) (uint64, bool) {
	m, ok := s.dataMAC[idx]
	return m, ok
}

// SetDataMAC overwrites a data line's MAC (adversary interface).
func (s *Store) SetDataMAC(idx uint64, m uint64) { s.dataMAC[idx] = m }

// CounterLine returns a copy (see DataLine) of the stored encoding of a
// counter line at a level (0 = encryption counters, 1.. = tree levels).
func (s *Store) CounterLine(level int, idx uint64) ([]byte, bool) {
	raw, ok := s.levels[level][idx]
	return bytes.Clone(raw), ok
}

// SetCounterLine overwrites a counter line (adversary interface).
func (s *Store) SetCounterLine(level int, idx uint64, raw []byte) {
	s.levels[level][idx] = bytes.Clone(raw)
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
	macOK    bool
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
	if ct, ok := s.data[dataIdx]; ok {
		t.data, t.dataOK = bytes.Clone(ct), true
	}
	if m, ok := s.dataMAC[dataIdx]; ok {
		t.mac, t.macOK = m, true
	}
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
func (s *Store) Replay(t Tuple) {
	if t.dataOK {
		s.data[t.dataIdx] = bytes.Clone(t.data)
	} else {
		delete(s.data, t.dataIdx)
	}
	if t.macOK {
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
func (s *Store) FlipBit(dataIdx uint64, byteOff int, bit uint) bool {
	ct, ok := s.data[dataIdx]
	if !ok {
		return false
	}
	ct[byteOff%len(ct)] ^= 1 << (bit % 8)
	return true
}

// FlipCounterBit flips one bit of a stored counter line.
func (s *Store) FlipCounterBit(level int, idx uint64, byteOff int, bit uint) bool {
	raw, ok := s.levels[level][idx]
	if !ok {
		return false
	}
	raw[byteOff%len(raw)] ^= 1 << (bit % 8)
	return true
}
