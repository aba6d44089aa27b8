package secmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/securemem/morphtree/internal/proof"
)

// The counter cache is write-back: a write leaves its counter line dirty in
// the cache, and the line is sealed, stored and counted in its parent only
// when it is written back. These tests pin what that must not change (what
// reads return, what verifies, what an adversary can get away with) and what
// it must (the tree above level 0 moves per write-back, not per write).

// checkWriteBackInvariant checks the invariant the design rests on, on the
// whole store and while blocks are dirty: every stored counter line is sealed
// under its parent's current cached value for that slot, or its block is
// cached and dirty.
func checkWriteBackInvariant(t *testing.T, m *Memory) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	root := m.geom.RootLevel()
	for level := root - 1; level >= 0; level-- {
		_ = m.store.levels[level].stored(func(idx uint64, c *chunk[ctrExt], i uint64) error {
			if m.pending(level, idx) {
				if c.ext.blk[i] == nil {
					t.Fatalf("level-%d line %d is dirty but not cached", level, idx)
				}
				return nil
			}
			parent, pslot := m.geom.ParentSlot(level, idx)
			pblk := m.root
			if level+1 < root {
				pc := m.store.levels[level+1].at(parent)
				if pblk = pc.ext.blk[parent%chunkLines]; pblk == nil {
					// Not cached, so not dirty: its stored line is current
					// (and was itself checked one level up).
					var err error
					if pblk, err = m.cfg.specAt(level + 1).Decode(pc.get(parent % chunkLines)); err != nil {
						t.Fatalf("level-%d line %d: parent undecodable: %v", level, idx, err)
					}
				}
			}
			if _, err := m.walker.DecodeVerify(level, idx, c.line[i][:], pblk.Value(pslot)); err != nil {
				t.Fatalf("level-%d line %d is clean but not sealed under its parent's cached value: %v", level, idx, err)
			}
			return nil
		})
	}
}

// diffEngine is one side of the differential test: an engine, a replica fed
// only by its deltas, and the stats of the engines Save→Load has replaced.
type diffEngine struct {
	t       *testing.T
	cfg     Config
	bound   int
	m       *Memory
	replica *Memory
	retired Stats
}

func newDiffEngine(t *testing.T, cfg Config, bound int) *diffEngine {
	e := &diffEngine{t: t, cfg: cfg, bound: bound, m: mustNew(t, cfg), replica: mustNew(t, cfg)}
	e.m.wbBound = bound
	return e
}

func (e *diffEngine) stats() Stats {
	st := e.retired.Clone()
	st.Merge(e.m.Stats())
	return st
}

// saveLoad replaces the engine by what Load makes of its Save stream, and
// the replica by the same: the delta chain restarts from that snapshot.
func (e *diffEngine) saveLoad() {
	e.t.Helper()
	var buf bytes.Buffer
	if err := e.m.Save(&buf); err != nil {
		e.t.Fatal(err)
	}
	e.retired.Merge(e.m.Stats())
	var err error
	if e.m, err = Load(e.cfg, bytes.NewReader(buf.Bytes())); err != nil {
		e.t.Fatal(err)
	}
	e.m.wbBound = e.bound
	if e.replica, err = Load(e.cfg, bytes.NewReader(buf.Bytes())); err != nil {
		e.t.Fatal(err)
	}
}

// shipDelta applies the engine's dirty lines to the replica, which must then
// verify end to end on its own.
func (e *diffEngine) shipDelta() {
	e.t.Helper()
	cut, lines := drainCut(e.t, e.m)
	if err := e.replica.Apply(lines); err != nil {
		e.t.Fatal(err)
	}
	cut.Commit()
	if err := e.replica.VerifyAll(); err != nil {
		e.t.Fatalf("replica after delta: %v", err)
	}
}

// prove builds a one-shard proof for addr and has the client-side verifier
// recompute it.
func (e *diffEngine) prove(master []byte, addr uint64) []byte {
	e.t.Helper()
	ct, lineMAC, chain, root, err := e.m.Prove(addr)
	if err != nil {
		e.t.Fatal(err)
	}
	p := &proof.Proof{Addr: addr, Shards: 1, Line: ct, LineMAC: lineMAC, Chain: chain, Root: root,
		ShardRoots: []proof.Digest{proof.RootDigest(0, root)}}
	pt, err := p.Verify(proof.Params{MemoryBytes: e.cfg.MemoryBytes, Shards: 1, Enc: e.cfg.Enc, Tree: e.cfg.Tree}, master, nil)
	if err != nil {
		e.t.Fatalf("proof for %#x does not verify: %v", addr, err)
	}
	return pt
}

// TestLazyWriteBackMatchesEager runs one seeded schedule against the engine
// as it ships and against the same engine with a dirty bound of zero, which
// writes every block back after every write: the write-through engine this
// one replaced. Everything a caller can observe must agree.
func TestLazyWriteBackMatchesEager(t *testing.T) {
	const memBytes = 4 << 20 // two stored levels (three for VAULT), several level-1 lines
	master := []byte("differential-key")
	key, err := proof.DeriveShardKey(master, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		org   string
		bound int
	}{
		{"MorphCtr-128", dirtyBlockBound},
		{"MorphCtr-128", 4}, // oldest-first eviction on nearly every write
		{"SC-64", dirtyBlockBound},
		{"VAULT", 4},
	} {
		t.Run(fmt.Sprintf("%s/bound%d", tc.org, tc.bound), func(t *testing.T) {
			cfg := configs(memBytes)[tc.org]
			cfg.Key = key
			lazy, eager := newDiffEngine(t, cfg, tc.bound), newDiffEngine(t, cfg, 0)
			both := []*diffEngine{lazy, eager}
			rng := rand.New(rand.NewSource(20180914))
			lines := memBytes / LineBytes
			shadow := map[uint64][]byte{}
			pick := func() uint64 {
				// Half the traffic in four counter blocks, half anywhere.
				if rng.Intn(2) == 0 {
					return uint64(rng.Intn(4*cfg.Enc.Arity)) * LineBytes
				}
				return uint64(rng.Intn(lines)) * LineBytes
			}
			write := func(addr uint64) {
				t.Helper()
				l := make([]byte, LineBytes)
				rng.Read(l)
				shadow[addr] = l
				for _, e := range both {
					if err := e.m.Write(addr, l); err != nil {
						t.Fatalf("write %#x: %v", addr, err)
					}
				}
			}
			expect := func(addr uint64) []byte {
				if l, ok := shadow[addr]; ok {
					return l
				}
				return zeroLine[:]
			}
			for op := 0; op < 600; op++ {
				switch r := rng.Intn(100); {
				case r < 60:
					write(pick())
				case r < 75:
					addr := pick()
					for _, e := range both {
						got, err := e.m.Read(addr)
						if err != nil || !bytes.Equal(got, expect(addr)) {
							t.Fatalf("op %d: read %#x: %v (content ok: %v)", op, addr, err, bytes.Equal(got, expect(addr)))
						}
					}
				case r < 80:
					for _, e := range both {
						e.m.FlushMetadataCache()
					}
				case r < 83:
					for _, e := range both {
						e.saveLoad()
					}
				case r < 88:
					for _, e := range both {
						e.shipDelta()
					}
					addr := pick()
					for _, e := range both {
						got, err := e.replica.Read(addr)
						if err != nil || !bytes.Equal(got, expect(addr)) {
							t.Fatalf("op %d: replica read %#x: %v", op, addr, err)
						}
					}
				case r < 93:
					addr := pick()
					for _, e := range both {
						if got := e.prove(master, addr); !bytes.Equal(got, expect(addr)) {
							t.Fatalf("op %d: proof for %#x verifies to the wrong plaintext", op, addr)
						}
					}
				case r < 97:
					// Overflow storm on one hot line, with a neighbour in
					// the same block so re-encryption has a victim.
					hot := pick()
					for i := 0; i < 150; i++ {
						write(hot)
						if i%50 == 0 {
							write(hot ^ LineBytes)
						}
					}
				default:
					// Write-back storm: the same counter line leaves the
					// cache over and over, so the levels above overflow too.
					hot := pick()
					for i := 0; i < 70; i++ {
						write(hot)
						for _, e := range both {
							e.m.FlushMetadataCache()
						}
					}
				}
				if op%4 == 0 {
					checkWriteBackInvariant(t, lazy.m)
				}
			}
			for _, e := range both {
				if err := e.m.VerifyAll(); err != nil {
					t.Fatalf("VerifyAll: %v", err)
				}
				for addr, want := range shadow {
					if got, err := e.m.Read(addr); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("final read %#x: %v", addr, err)
					}
				}
			}
			ls, es := lazy.stats(), eager.stats()
			if ls.Writes != es.Writes || ls.Increments[0] != es.Increments[0] || ls.Overflows[0] != es.Overflows[0] ||
				ls.SetResets[0] != es.SetResets[0] || ls.Rebases[0] != es.Rebases[0] || ls.FormatSwitches[0] != es.FormatSwitches[0] {
				t.Fatalf("level-0 stats differ:\nlazy  %+v\neager %+v", ls, es)
			}
			if es.Increments[1] != es.Writes {
				t.Fatalf("the eager side made %d level-1 increments for %d writes: it is not writing through", es.Increments[1], es.Writes)
			}
			if ls.Increments[1] > es.Increments[1] {
				t.Fatalf("lazy write-back made %d level-1 increments, eager %d", ls.Increments[1], es.Increments[1])
			}
			t.Logf("%d writes: level-1 increments %d lazy, %d eager; level-1 overflows %d lazy, %d eager",
				ls.Writes, ls.Increments[1], es.Increments[1], ls.Overflows[1], es.Overflows[1])
		})
	}
}

// TestEvictionIsOldestFirst pins the order and what the bound counts: with a
// bound of two, the third block dirtied pushes out the first, whose write-back
// dirties their level-1 parent, which pushes out the second.
func TestEvictionIsOldestFirst(t *testing.T) {
	m := mustNew(t, configs(4 << 20)["MorphCtr-128"])
	m.wbBound = 2
	blockBytes := uint64(m.cfg.Enc.Arity) * LineBytes
	for b := uint64(0); b < 3; b++ {
		if err := m.Write(b*blockBytes, line(byte(b))); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pending(0, 0) || m.pending(0, 1) || !m.pending(0, 2) || !m.pending(1, 0) || m.wb.n != 2 {
		t.Fatalf("dirty after three writes at bound 2: level 0 %b, level 1 %b, %d queued",
			m.store.levels[0].at(0).ext.pending, m.store.levels[1].at(0).ext.pending, m.wb.n)
	}
	for b := uint64(0); b < 3; b++ {
		if _, stored := m.store.CounterLine(0, b); stored != (b < 2) {
			t.Fatalf("counter line %d stored: %v", b, stored)
		}
	}
	if _, stored := m.store.CounterLine(1, 0); stored {
		t.Fatal("the level-1 line is dirty and was never written back, yet it is stored")
	}
	if m.stats.Increments[1] != 2 || m.stats.Increments[2] != 0 {
		t.Fatalf("tree increments %v, want two at level 1 (two write-backs) and none at the root", m.stats.Increments[1:])
	}
}

// dirtyAgain writes addr, writes its counter line back, and writes it again:
// the stored counter lines on its path are now stale copies of dirty blocks.
// It returns the Store handle obtained between the two writes.
func dirtyAgain(t *testing.T, m *Memory, addr uint64) *Store {
	t.Helper()
	if err := m.Write(addr, line(1)); err != nil {
		t.Fatal(err)
	}
	st := m.Store() // writes back
	if err := m.Write(addr, line(2)); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestTamperOfStaleLineWhileDirtyIsOverwritten(t *testing.T) {
	for name, cfg := range configs(4 << 20) {
		t.Run(name, func(t *testing.T) {
			m := mustNew(t, cfg)
			st := dirtyAgain(t, m, 0)
			if !st.FlipCounterBit(0, 0, 9, 2) {
				t.Fatal("flip failed")
			}
			m.FlushMetadataCache()
			got, err := m.Read(0)
			if err != nil {
				t.Fatalf("a flipped bit in a stale line that write-back overwrites raised %v", err)
			}
			if !bytes.Equal(got, line(2)) {
				t.Fatal("wrong content after write-back")
			}
			if err := m.VerifyAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTamperAfterWriteBackDetectedWhereItHappened(t *testing.T) {
	for name, cfg := range configs(4 << 20) {
		for level := 0; level < 2; level++ {
			t.Run(fmt.Sprintf("%s/level%d", name, level), func(t *testing.T) {
				m := mustNew(t, cfg)
				dirtyAgain(t, m, 0)
				if !m.Store().FlipCounterBit(level, 0, 9, 2) { // Store wrote the block back
					t.Fatal("flip failed")
				}
				m.FlushMetadataCache()
				ie := wantIntegrityError(t, mustReadErr(m, 0), "counter tamper after write-back")
				if ie.Level != level || ie.Index != 0 {
					t.Fatalf("violation at level %d line %d, want level %d line 0", ie.Level, ie.Index, level)
				}
			})
		}
	}
}

func TestFullTupleReplayAcrossAWriteDetected(t *testing.T) {
	for name, cfg := range configs(4 << 20) {
		for _, handle := range []string{"before", "after"} {
			t.Run(name+"/store-obtained-"+handle, func(t *testing.T) {
				m := mustNew(t, cfg)
				if err := m.Write(0, line(1)); err != nil {
					t.Fatal(err)
				}
				st := m.Store()
				old := st.Snapshot(0, m.Path(0))
				if err := m.Write(0, line(2)); err != nil {
					t.Fatal(err)
				}
				// A handle obtained before the write replays under a dirty
				// block, whose write-back overwrites the replayed counter
				// lines and leaves stale data under a newer counter; one
				// obtained after it replays over sealed state, and the root
				// has moved on.
				wantLevel := -1
				if handle == "after" {
					st, wantLevel = m.Store(), m.Geometry().RootLevel()-1
				}
				st.Replay(old)
				m.FlushMetadataCache()
				ie := wantIntegrityError(t, mustReadErr(m, 0), "full tuple replay across a write")
				if ie.Level != wantLevel {
					t.Fatalf("violation at level %d, want %d", ie.Level, wantLevel)
				}
			})
		}
	}
}

// A child's stored line that went missing while its parent's counter for it
// is non-zero is an attack, in an overflow refresh as on any other fetch.
func TestOverflowRefreshRejectsMissingChild(t *testing.T) {
	m := mustNew(t, configs(1 << 20)["SC-64"]) // 6-bit level-1 minors
	blockBytes := uint64(m.cfg.Enc.Arity) * LineBytes
	victim := blockBytes // counter block 1; block 0 shares its level-1 line
	absent := m.Store().Snapshot(victim/LineBytes, [][2]uint64{{0, 1}})
	if err := m.Write(victim, line(7)); err != nil {
		t.Fatal(err)
	}
	m.Store().Replay(absent) // deletes the victim's data, MAC and counter line
	m.FlushMetadataCache()
	// Write block 0 back until the level-1 minor for it overflows: the
	// refresh re-MACs every sibling, and must not quietly restart the
	// victim's counters from zero.
	var err error
	for i := 0; i < 200 && err == nil; i++ {
		if err = m.Write(0, line(byte(i))); err == nil {
			m.FlushMetadataCache()
		}
	}
	ie := wantIntegrityError(t, err, "deleted counter line met by a level-1 overflow")
	if ie.Level != 0 || ie.Index != 1 || ie.Reason != "counter line missing from memory" {
		t.Fatalf("got %v", ie)
	}
	if st := m.Stats(); st.Overflows[1] != 1 {
		t.Fatalf("level-1 overflows = %d, want the one that met the missing line", st.Overflows[1])
	}
	// The violation surfaced in a write-back no caller could receive it
	// from, so the engine has failed stop.
	wantIntegrityError(t, mustReadErr(m, 0), "read after a failed write-back")
	wantIntegrityError(t, m.VerifyAll(), "VerifyAll after a failed write-back")
}
