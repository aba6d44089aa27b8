package cache

import (
	"sync"
	"testing"
)

// TestConcurrentMixedWorkload drives every public method from many
// goroutines at once over a deliberately tiny cache (maximum set
// contention). Run under -race this is the package's thread-safety claim;
// the final checks assert the bookkeeping stayed coherent, not any
// particular interleaving.
func TestConcurrentMixedWorkload(t *testing.T) {
	const (
		lineBytes = 64
		ways      = 4
		size      = 16 * ways * lineBytes // 16 sets
		workers   = 8
		opsPerW   = 5000
	)
	c := MustNew(size, ways, lineBytes)
	addrs := make([]uint64, 64)
	for i := range addrs {
		addrs[i] = uint64(i) * lineBytes
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < opsPerW; i++ {
				// xorshift: deterministic per-worker op mix without
				// sharing a rand source.
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				// The op comes from bits the address does not use, so
				// every set sees every op.
				addr := addrs[rng%uint64(len(addrs))]
				switch (rng >> 32) % 4 {
				case 0:
					c.Access(addr, rng%2 == 0)
				case 1:
					if !c.Access(addr, false) {
						c.Fill(addr, rng%2 == 0)
					}
				case 2:
					c.FillLowPriority(addr, true)
				case 3:
					c.Contains(addr)
					c.Occupancy()
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()

	// Coherence, not interleaving: occupancy is bounded by capacity, and
	// the stats tally is coherent and saw both hits and misses.
	if occ := c.Occupancy(); occ < 0 || occ > c.Lines() {
		t.Fatalf("occupancy %d out of range [0, %d]", occ, c.Lines())
	}
	st := c.Stats()
	if st.DirtyEvictions > st.Evictions {
		t.Fatalf("stats incoherent: %d dirty evictions > %d evictions", st.DirtyEvictions, st.Evictions)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("workload exercised no hits (%d) or no misses (%d)", st.Hits, st.Misses)
	}
	// The cache must still work single-threaded after the storm.
	probe := uint64(len(addrs)) * lineBytes // never touched
	if c.Access(probe, false) {
		t.Fatal("access hit a line never filled")
	}
	c.Fill(probe, true)
	if !c.Access(probe, false) {
		t.Fatal("access missed after fill")
	}
}
