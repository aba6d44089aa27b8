package secmem

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/securemem/morphtree/internal/counters"
)

// bump used to decode all of a line's counter values before every increment,
// so that the rare one that overflows could tell which siblings moved; it now
// copies the line and decodes the copy only after an overflow. The old bump is
// kept here, with the three functions between it and Write, as the oracle: the
// same write history through both must re-encrypt the same children from the
// same values to the same values, which is to say leave the same bytes.

// eagerBump is bump with the pre-image taken the old way.
func (m *Memory) eagerBump(level int, idx uint64, slot int) (counters.Block, error) {
	blk, err := m.trustedBlock(level, idx)
	if err != nil {
		return nil, err
	}
	snapshot := make([]uint64, blk.Arity())
	blk.Values(snapshot)
	ev := blk.Increment(slot)
	m.stats.Increments[level]++
	if ev.Overflow {
		m.stats.Overflows[level]++
		if ev.Reencrypt < blk.Arity() {
			m.stats.SetResets[level]++
		}
	}
	if ev.Rebased {
		m.stats.Rebases[level]++
	}
	if ev.FormatSwitch {
		m.stats.FormatSwitches[level]++
	}
	if level < m.geom.RootLevel() {
		if c, bit := m.store.levels[level].at(idx), uint64(1)<<(idx%chunkLines); c.ext.pending&bit == 0 {
			c.ext.pending |= bit
			m.wb.ring[(m.wb.head+m.wb.n)%len(m.wb.ring)] = blockRef{level, idx}
			m.wb.n++
		}
	}
	if ev.Overflow {
		if err := m.refreshChildren(level, idx, blk, snapshot, slot); err != nil {
			return nil, err
		}
	}
	return blk, nil
}

func (m *Memory) eagerWriteBack(level int, idx uint64) error {
	parent, pslot := m.geom.ParentSlot(level, idx)
	pblk, err := m.eagerBump(level+1, parent, pslot)
	if err != nil {
		return err
	}
	m.sealBlock(level, idx, pblk.Value(pslot))
	m.store.levels[level].at(idx).ext.pending &^= 1 << (idx % chunkLines)
	return nil
}

func (m *Memory) eagerSettle(keep int) error {
	for m.wb.err == nil && m.wb.n > keep {
		ref := m.wb.ring[m.wb.head]
		m.wb.head = (m.wb.head + 1) % len(m.wb.ring)
		m.wb.n--
		m.wb.err = m.eagerWriteBack(ref.level, ref.idx)
	}
	return m.wb.err
}

// eagerWrite is Write in the engine's own key domain over eagerBump.
func (m *Memory) eagerWrite(addr uint64, line []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := addr / LineBytes
	eb, slot := m.geom.EncSlot(d)
	blk, err := m.eagerBump(0, eb, slot)
	if err != nil {
		return err
	}
	if err := m.eagerSettle(m.wbBound); err != nil {
		return err
	}
	ctr := blk.Value(slot)
	c, i := m.store.data.grow(d), d%chunkLines
	ct := c.line[i][:]
	if err := m.cipher.XOR(ct, line, addr, ctr); err != nil {
		return err
	}
	m.sealData(c, i, m.keyer.Data(ct, ctr, addr), nil)
	m.stats.Writes++
	return nil
}

// eagerSave is Save with the write-backs it starts with done the old way.
func (m *Memory) eagerSave(t *testing.T) []byte {
	t.Helper()
	m.mu.Lock()
	err := m.eagerSettle(0)
	m.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return saveBytes(t, m)
}

func saveBytes(t *testing.T, m *Memory) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLazyPreimageBumpMatchesEagerBump(t *testing.T) {
	morph := counters.MorphSpec(true)
	for _, tc := range []struct {
		name string
		enc  counters.Spec
		tree []counters.Spec
	}{
		{"morph128", morph, []counters.Spec{morph}},
		{"morph128-zcc", counters.MorphSpec(false), []counters.Spec{counters.MorphSpec(false)}},
		{"sc64", counters.SplitSpec(64), []counters.Spec{counters.SplitSpec(64)}},
		{"vault", counters.SplitSpec(64), []counters.Spec{counters.SplitSpec(32), counters.SplitSpec(16)}},
		{"delta", counters.DeltaSpec(), []counters.Spec{counters.DeltaSpec()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{MemoryBytes: 4 << 20, Enc: tc.enc, Tree: tc.tree, Key: testKey}
			lazy, eager := mustNew(t, cfg), mustNew(t, cfg)
			// Four dirty blocks at most, so that counter lines are written
			// back all the time and the tree's own counters overflow too.
			lazy.wbBound, eager.wbBound = 4, 4

			rng := rand.New(rand.NewSource(41))
			arity := uint64(tc.enc.Arity)
			lines := cfg.MemoryBytes / LineBytes
			line := make([]byte, LineBytes)
			compared := 0
			overflows := func() (n uint64) {
				for _, v := range lazy.stats.Overflows {
					n += v
				}
				return n
			}
			for w := 0; w < 60000; w++ {
				// A few lines in each of 96 counter blocks, which are evicted
				// in turn and crowd one tree line; most of one block, so that
				// it goes dense, and one line of it hot, so that it overflows
				// there; now and then any line at all.
				var d uint64
				switch r := rng.Intn(10); {
				case r < 5:
					d = uint64(rng.Intn(96))*arity + uint64(rng.Intn(3))
				case r < 8:
					d = 7*arity + uint64(rng.Intn(100))%arity
				case r < 9:
					d = 7*arity + 1
				default:
					d = uint64(rng.Int63n(int64(lines)))
				}
				rng.Read(line)
				before := overflows()
				if err := lazy.Write(d*LineBytes, line); err != nil {
					t.Fatal(err)
				}
				if err := eager.eagerWrite(d*LineBytes, line); err != nil {
					t.Fatal(err)
				}
				if ls, es := lazy.Stats(), eager.Stats(); !reflect.DeepEqual(ls, es) {
					t.Fatalf("write %d (line %d): stats differ\n lazy  %+v\n eager %+v", w, d, ls, es)
				}
				// After a write that overflowed, and at the end, every byte.
				if (overflows() != before && compared < 200) || w == 59999 {
					compared++
					if !bytes.Equal(saveBytes(t, lazy), eager.eagerSave(t)) {
						t.Fatalf("write %d (line %d): Save streams differ after an overflow", w, d)
					}
				}
			}
			st := lazy.Stats()
			if st.Overflows[0] == 0 || st.Reencryptions == 0 {
				t.Errorf("no level-0 overflow in the history: %+v", st)
			}
			if tc.name != "morph128-zcc" && tc.name != "delta" && st.Overflows[1] == 0 {
				t.Errorf("no level-1 overflow in the history: %+v", st)
			}
			if err := lazy.VerifyAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
