package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeometryValidation(t *testing.T) {
	if _, err := New(0, 8, 64); err == nil {
		t.Error("zero size must fail")
	}
	if _, err := New(1024, 0, 64); err == nil {
		t.Error("zero ways must fail")
	}
	if _, err := New(1000, 8, 64); err == nil {
		t.Error("non-divisible size must fail")
	}
	if _, err := New(3*8*64, 8, 64); err == nil {
		t.Error("non-power-of-two sets must fail")
	}
	c, err := New(128<<10, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.Lines() != 2048 {
		t.Errorf("128KB/8-way/64B = %d lines, want 2048", c.Lines())
	}
}

func TestHitMissFill(t *testing.T) {
	c := MustNew(8*64, 8, 64) // one set, 8 ways
	if c.Access(0, false) {
		t.Fatal("empty cache hit")
	}
	c.Fill(0, false)
	if !c.Access(0, false) {
		t.Fatal("filled line missed")
	}
	if !c.Access(63, false) {
		t.Fatal("same-line offset missed")
	}
	if c.Access(64, false) {
		t.Fatal("adjacent line hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(2*64, 2, 64) // one set, 2 ways
	c.Fill(0, false)
	c.Fill(128, false)
	c.Access(0, false) // line 0 is now MRU
	v, evicted := c.Fill(256, false)
	if !evicted {
		t.Fatal("expected eviction")
	}
	if v.Addr != 128 {
		t.Fatalf("evicted %d, want 128 (LRU)", v.Addr)
	}
	if !c.Contains(0) || !c.Contains(256) || c.Contains(128) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := MustNew(1*64, 1, 64)
	c.Fill(0, false)
	c.Access(0, true) // dirty it
	v, evicted := c.Fill(64, false)
	if !evicted || !v.Dirty || v.Addr != 0 {
		t.Fatalf("victim = %+v evicted=%v", v, evicted)
	}
	v, _ = c.Fill(128, false)
	if v.Dirty {
		t.Fatal("clean line evicted dirty")
	}
	st := c.Stats()
	if st.Evictions != 2 || st.DirtyEvictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFillWithDirty(t *testing.T) {
	c := MustNew(1*64, 1, 64)
	c.Fill(0, true)
	v, _ := c.Fill(64, false)
	if !v.Dirty {
		t.Fatal("dirty-filled line evicted clean")
	}
}

func TestDoubleFillRefreshes(t *testing.T) {
	c := MustNew(2*64, 2, 64)
	c.Fill(0, false)
	c.Fill(0, true) // re-fill marks dirty, must not evict
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d", c.Occupancy())
	}
	v, evicted := c.Fill(128, false)
	if evicted {
		t.Fatalf("unexpected eviction %+v", v)
	}
	c.Access(0, false)
	v, _ = c.Fill(256, false)
	if v.Addr != 128 {
		t.Fatalf("evicted %d, want 128", v.Addr)
	}
}

func TestSetIsolation(t *testing.T) {
	// Lines mapping to different sets must not evict each other.
	c := MustNew(2*2*64, 2, 64) // 2 sets, 2 ways
	c.Fill(0, false)            // set 0
	c.Fill(64, false)           // set 1
	c.Fill(128, false)          // set 0
	c.Fill(192, false)          // set 1
	if c.Occupancy() != 4 {
		t.Fatalf("occupancy = %d, want 4", c.Occupancy())
	}
	v, evicted := c.Fill(256, false) // set 0: evicts LRU of set 0 only
	if !evicted || v.Addr != 0 {
		t.Fatalf("victim = %+v", v)
	}
	if !c.Contains(64) || !c.Contains(192) {
		t.Fatal("set-1 lines disturbed by set-0 eviction")
	}
}

// Reference model: a per-set LRU list implemented with slices.
type refCache struct {
	ways int
	sets map[uint64][]refLine
	line uint64
	nset uint64
}

type refLine struct {
	tag   uint64
	dirty bool
}

func (r *refCache) access(addr uint64, write bool) bool {
	tag := addr / r.line
	set := tag % r.nset
	for i, l := range r.sets[set] {
		if l.tag == tag {
			l.dirty = l.dirty || write
			r.sets[set] = append(append(append([]refLine{}, r.sets[set][:i]...), r.sets[set][i+1:]...), l)
			return true
		}
	}
	return false
}

func (r *refCache) fill(addr uint64, dirty bool) (Victim, bool) {
	tag := addr / r.line
	set := tag % r.nset
	if r.access(addr, dirty) {
		return Victim{}, false
	}
	var v Victim
	evicted := false
	if len(r.sets[set]) == r.ways {
		old := r.sets[set][0]
		r.sets[set] = r.sets[set][1:]
		v = Victim{Addr: old.tag * r.line, Dirty: old.dirty}
		evicted = true
	}
	r.sets[set] = append(r.sets[set], refLine{tag, dirty})
	return v, evicted
}

// Property: the cache agrees with a straightforward LRU reference model
// under arbitrary access/fill interleavings.
func TestQuickAgainstReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNew(4*4*64, 4, 64) // 4 sets, 4 ways
		r := &refCache{ways: 4, sets: map[uint64][]refLine{}, line: 64, nset: 4}
		for op := 0; op < 2000; op++ {
			addr := uint64(rng.Intn(64)) * 64
			write := rng.Intn(3) == 0
			if rng.Intn(2) == 0 {
				if c.Access(addr, write) != r.access(addr, write) {
					return false
				}
			} else {
				if !c.Access(addr, write) {
					r.access(addr, write)
					gv, ge := c.Fill(addr, write)
					rv, re := r.fill(addr, write)
					if ge != re || gv != rv {
						return false
					}
				} else {
					r.access(addr, write)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	c := MustNew(16*64, 4, 64)
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 5000; op++ {
		addr := uint64(rng.Intn(256)) * 64
		if !c.Access(addr, false) {
			c.Fill(addr, rng.Intn(2) == 0)
		}
		if c.Occupancy() > c.Lines() {
			t.Fatalf("occupancy %d exceeds capacity %d", c.Occupancy(), c.Lines())
		}
	}
	if c.Occupancy() != c.Lines() {
		t.Fatalf("steady-state occupancy %d, want full %d", c.Occupancy(), c.Lines())
	}
}

func TestLowPriorityInsertion(t *testing.T) {
	c := MustNew(4*64, 4, 64) // one set, 4 ways
	c.Fill(0, false)
	c.Fill(64, false)
	c.Fill(128, false)
	c.FillLowPriority(192, false)
	// The low-priority line is the first eviction candidate even though
	// it arrived last.
	v, evicted := c.Fill(256, false)
	if !evicted || v.Addr != 192 {
		t.Fatalf("victim = %+v, want the low-priority line 192", v)
	}
	// A hit promotes a low-priority line to MRU.
	c2 := MustNew(2*64, 2, 64)
	c2.FillLowPriority(0, false)
	c2.Fill(64, false)
	c2.Access(0, false) // promote
	v, _ = c2.Fill(128, false)
	if v.Addr != 64 {
		t.Fatalf("promoted line evicted first (victim %+v)", v)
	}
}
