package secmem

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// A delta checkpoint used to be a freeze: CollectDirty copied every dirty
// line under the engine lock, and the floor moved at CommitDirty. BeginCut and
// Drain replaced it (dirty.go); the freeze lives on here, as it was, as the
// oracle the cut is held against.

// CollectDirty captures a copy of every line modified since the last
// committed collection (plus the root line, always) under the engine lock and
// returns the cut epoch.
func (m *Memory) CollectDirty(fn func(DirtyLine)) uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
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

// CommitDirty marks the collection at cut as durably persisted.
func (m *Memory) CommitDirty(cut uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cut+1 > m.dirtyFloor {
		m.dirtyFloor = cut + 1
	}
}

// dirty calls fn on every line stamped at floor or later, in index order: what
// the freeze walked (the store's own walk is dirty.go's picker now).
func (t table[X]) dirty(floor uint32, fn func(idx uint64, c *chunk[X], i uint64)) {
	_ = t.chunks(func(base uint64, c *chunk[X]) error {
		if c.newest < floor {
			return nil
		}
		for i, s := range c.stamp {
			if s >= floor {
				fn(base+uint64(i), c, uint64(i))
			}
		}
		return nil
	})
}

// DirtyCount returns how many lines the next cut would take, excluding the
// always-included root line (the tests assert the O(dirty) claim with
// it).
func (m *Memory) DirtyCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.settle(0) // as BeginCut will
	return m.store.count(stamped(m.dirtyFloor, m.dirtyCur))
}

// decodeRecords reads a run of records back with the stream's own decoder.
func decodeRecords(t testing.TB, rec []byte) []DirtyLine {
	t.Helper()
	var lines []DirtyLine
	for r := bytes.NewReader(rec); r.Len() > 0; {
		d, err := readRecord(r, new([recordBytes]byte))
		if err != nil {
			t.Fatalf("%d bytes of records end inside a record: %v", len(rec), err)
		}
		lines = append(lines, d)
	}
	return lines
}

// drainCut begins a cut and drains it with nothing else running, so what it
// returns is what the freeze would have collected, in its order. The cut is
// left open: the caller commits or aborts it.
func drainCut(t testing.TB, m *Memory) (*Cut, []DirtyLine) {
	t.Helper()
	cut, err := m.BeginCut()
	if err != nil {
		t.Fatal(err)
	}
	var rec []byte
	if err := cut.Drain(func(r []byte) error { rec = append(rec, r...); return nil }); err != nil {
		t.Fatal(err)
	}
	lines := decodeRecords(t, rec)
	if len(lines) != cut.N() {
		t.Fatalf("the cut counted %d lines and emitted %d", cut.N(), len(lines))
	}
	return cut, lines
}

// commitFullCut drains a full cut of m with nothing else running and commits
// it: every line m holds is clean from then on, as a full checkpoint leaves it.
func commitFullCut(t testing.TB, m *Memory) {
	t.Helper()
	c, err := m.BeginFullCut()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteRecords(io.Discard); err != nil {
		t.Fatal(err)
	}
	c.Commit()
}

// TestCutMatchesFreeze feeds two engines one seeded history. At every round
// the oracle is frozen while the other engine is cut at the same instant and
// then written to from inside emit, which is as concurrent as a writer can be
// and still repeat: hot lines that overflow and re-encrypt their neighbours,
// write-backs (the dirty bound is 4), lines ahead of the walker and behind it,
// first writes into pages that did not exist. The cut must hold what the
// freeze holds. Commits alternate with aborts, so the floor is exercised too.
// Four rounds are full cuts, with and without a writer, committed and
// aborted: the frozen image is Save's, a full cut drained with nothing
// writing, which moves the dirty epoch as the freeze does, and with no writer
// the cut's bytes are the image's.
func TestCutMatchesFreeze(t *testing.T) {
	const memBytes = 4 << 20
	for name, cfg := range configs(memBytes) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(18))
			frozen, cut := mustNew(t, cfg), mustNew(t, cfg)
			frozen.wbBound, cut.wbBound = 4, 4
			version := map[uint64]byte{}
			type op struct {
				d    uint64
				fill byte
			}
			next := func() op {
				var d uint64
				switch r := rng.Intn(10); {
				case r < 3:
					d = 5 // hot: every organization overflows on it
				case r < 6:
					d = uint64(rng.Intn(2048)) // rewrites, the hot line's neighbours among them
				default:
					d = uint64(rng.Intn(memBytes / LineBytes))
				}
				version[d]++
				return op{d, byte(d)*31 + version[d]}
			}
			apply := func(m *Memory, o op) {
				t.Helper()
				if err := m.Write(o.d*LineBytes, line(o.fill)); err != nil {
					t.Fatal(err)
				}
			}
			fullRounds := map[int]bool{2: true, 4: true, 7: true, 11: true}
			for round := 0; round < 13; round++ {
				for i := 0; i < 400; i++ {
					o := next()
					apply(frozen, o)
					apply(cut, o)
				}
				var want []DirtyLine
				var image bytes.Buffer
				var epoch uint32
				begin := cut.BeginCut
				if fullRounds[round] {
					if err := frozen.Save(&image); err != nil {
						t.Fatal(err)
					}
					want = decodeRecords(t, image.Bytes()[HeaderBytes+8:])
					epoch = frozen.dirtyCur - 1 // the epoch Save's cut took
					begin = cut.BeginFullCut
				} else {
					epoch = frozen.CollectDirty(func(d DirtyLine) { want = append(want, d) })
				}
				c, err := begin()
				if err != nil {
					t.Fatal(err)
				}
				if c.N() != len(want) || c.epoch != epoch {
					t.Fatalf("round %d: the cut counts %d lines at epoch %d, the freeze %d at %d", round, c.N(), c.epoch, len(want), epoch)
				}
				// What is written while the cut drains: nothing every third
				// round, otherwise a burst before the walker starts and a
				// trickle behind each chunk.
				var during []op
				if round%3 != 2 {
					for i := 0; i < 900; i++ {
						during = append(during, next())
					}
				}
				for _, o := range during {
					apply(frozen, o)
				}
				var got []byte
				burst := 64
				if err := c.Drain(func(rec []byte) error {
					got = append(got, rec...)
					for ; burst > 0 && len(during) > 0; burst-- {
						apply(cut, during[0])
						during = during[1:]
					}
					burst = 3
					return nil
				}); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for _, o := range during {
					apply(cut, o)
				}
				if fullRounds[round] && round%3 == 2 && !bytes.Equal(got, image.Bytes()[HeaderBytes+8:]) {
					t.Fatalf("round %d: a full cut with no writer is not, byte for byte, the frozen image", round)
				}
				lines := decodeRecords(t, got)
				if round%3 != 2 {
					// Order is free under writers; a line is in a cut once.
					for _, l := range [][]DirtyLine{lines, want} {
						sort.Slice(l, func(i, j int) bool {
							return l[i].Level < l[j].Level || l[i].Level == l[j].Level && l[i].Index < l[j].Index
						})
					}
				}
				if !reflect.DeepEqual(lines, want) {
					t.Fatalf("round %d: the cut emitted %d lines, the freeze collected %d, or not the same ones", round, len(lines), len(want))
				}
				if round%2 == 0 {
					frozen.CommitDirty(epoch)
					c.Commit()
				} else {
					c.Abort()
				}
				if n, want := cut.DirtyCount(), frozen.DirtyCount(); n != want {
					t.Fatalf("round %d: %d lines dirty after the cut, %d after the freeze", round, n, want)
				}
			}
			st := cut.Stats()
			if st.Overflows[0] == 0 || st.Reencryptions == 0 || st.Increments[1] == 0 {
				t.Fatalf("the history overflowed %d times, re-encrypted %d lines and wrote %d blocks back: not the history this test needs", st.Overflows[0], st.Reencryptions, st.Increments[1])
			}
			if !reflect.DeepEqual(st, frozen.Stats()) {
				t.Fatal("the two engines did not do the same work")
			}
			var a, b bytes.Buffer
			if err := frozen.Save(&a); err != nil {
				t.Fatal(err)
			}
			if err := cut.Save(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("the two engines hold different state")
			}
			if err := cut.VerifyAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCutLifecycle pins what closes a cut and what a closed cut does.
func TestCutLifecycle(t *testing.T) {
	m := mustNew(t, morphConfig(1<<20))
	for d := uint64(0); d < 200; d++ {
		if err := m.Write(d*LineBytes, line(byte(d))); err != nil {
			t.Fatal(err)
		}
	}
	c, err := m.BeginCut()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.BeginCut(); err == nil {
		t.Fatal("a second cut opened while the first was open")
	}
	if _, err := m.BeginFullCut(); err == nil {
		t.Fatal("a full cut opened while a cut was open")
	}
	// A cut closed under its drain ends the drain.
	emits := 0
	err = c.Drain(func([]byte) error {
		if emits++; emits == 2 {
			c.Abort()
		}
		return nil
	})
	if err == nil {
		t.Fatal("a cut closed while it drained reported success")
	}
	c.Commit() // closed already: must not move the floor
	if n := m.DirtyCount(); n != c.N()-1 {
		t.Fatalf("%d lines dirty after an aborted cut and a stale commit, want its %d", n, c.N()-1)
	}
	commitFullCut(t, m)
	if n := m.DirtyCount(); n != 0 {
		t.Fatalf("%d lines dirty after a committed full cut", n)
	}
	// An emit error ends the drain; Abort leaves the lines for the next cut.
	if err := m.Write(0, line(9)); err != nil {
		t.Fatal(err)
	}
	if c, err = m.BeginCut(); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(func([]byte) error { return bytes.ErrTooLarge }); err != bytes.ErrTooLarge {
		t.Fatalf("Drain returned %v, want the emit error", err)
	}
	c.Abort()
	c.Abort()
	next, lines := drainCut(t, m)
	if len(lines) != 1+1+m.geom.RootLevel() {
		t.Fatalf("the cut after an aborted one holds %d lines, want the root, the line and its %d counter lines", len(lines), m.geom.RootLevel())
	}
	next.Commit()
}

// TestSaveDuringDrainingCut calls Save on an engine while a cut of it is open
// and part drained and a writer keeps overwriting lines of both, hot ones that
// overflow among them: Save is a full cut, so it is refused with ErrCutOpen,
// writes nothing, and leaves the open cut alone — it still emits exactly the
// lines it counted, and its Commit raises the floor past its epoch. Once that
// cut is closed, Save's image loads and verifies.
func TestSaveDuringDrainingCut(t *testing.T) {
	cfg := morphConfig(4 << 20)
	m := mustNew(t, cfg)
	m.wbBound = 4
	for d := uint64(0); d < 4096; d++ {
		if err := m.Write(d*LineBytes, line(byte(d))); err != nil {
			t.Fatal(err)
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(19))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d := uint64(rng.Intn(8192))
			if i%3 == 0 {
				d = 5
			}
			if err := m.Write(d*LineBytes, line(byte(i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	cut, err := m.BeginCut()
	if err != nil {
		t.Fatal(err)
	}
	emits, emitted, refused := 0, 0, 0
	err = cut.Drain(func(rec []byte) error {
		emitted += len(decodeRecords(t, rec))
		if emits++; emits%16 != 1 {
			return nil
		}
		var image bytes.Buffer
		if err := m.Save(&image); !errors.Is(err, ErrCutOpen) || image.Len() != 0 {
			return fmt.Errorf("Save with a cut open wrote %d bytes and returned %v, want nothing and ErrCutOpen", image.Len(), err)
		}
		refused++
		return nil
	})
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if emitted != cut.N() || refused < 3 {
		t.Fatalf("the cut counted %d lines and emitted %d, with %d Saves refused while it drained", cut.N(), emitted, refused)
	}
	epoch := cut.epoch
	cut.Commit()
	if m.dirtyFloor != epoch+1 {
		t.Fatalf("the cut's Commit left the floor at %d, want %d", m.dirtyFloor, epoch+1)
	}
	var image bytes.Buffer
	if err := m.Save(&image); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(cfg, &image)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Overflows[0] == 0 {
		t.Fatal("the writer overflowed no counter")
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}
