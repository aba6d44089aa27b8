package secmem

import (
	"testing"

	"github.com/securemem/morphtree/internal/counters"
	"github.com/securemem/morphtree/internal/invariant"
	"github.com/securemem/morphtree/internal/racedetect"
)

// The engine's allocation contract, as counts: a warm read allocates the
// plaintext it returns and nothing else; a write allocates only what the
// store retains, which for a line written before is nothing; and writing
// dirty counter blocks back, once their lines exist in the store, allocates
// nothing either. morphlint's hotalloc checks the same functions statically
// but cannot see into bytes.Clone, the one allocation they are allowed; this
// pins the number.
func TestHotPathAllocations(t *testing.T) {
	if racedetect.Enabled || invariant.Enabled {
		t.Skip("allocation counts mean nothing under the race detector or with morphdebug assertions compiled in")
	}
	morph := counters.MorphSpec(true)
	// 64 MiB of MorphCtr-128 stores two counter levels under the root, the
	// geometry the benchmark runs.
	m, err := New(Config{MemoryBytes: 64 << 20, Enc: morph, Tree: []counters.Spec{morph}, Key: testKey})
	if err != nil {
		t.Fatal(err)
	}
	line := make([]byte, LineBytes)
	const span = 4096 // lines
	for d := uint64(0); d < span; d++ {
		if err := m.Write(d*LineBytes, line); err != nil {
			t.Fatal(err)
		}
	}

	var d uint64
	next := func() uint64 { d = (d + 131) % span; return d * LineBytes }

	if n := testing.AllocsPerRun(500, func() {
		if _, err := m.Read(next()); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("warm Read allocates %v times, want at most 1 (the returned plaintext)", n)
	}

	// Rewrites of resident lines: the span's counter lines are in MCR with
	// every minor at 1, so 500 more writes overflow nothing and every
	// stored buffer is overwritten in place.
	if n := testing.AllocsPerRun(500, func() {
		if err := m.Write(next(), line); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Write to a resident line allocates %v times, want 0", n)
	}

	// Write-back: one write into each of the span's 32 counter blocks, then
	// all 32 (and the level-1 block above them) sealed and stored over the
	// lines the last write-back left. Store is the full write-back that
	// drops nothing from the cache.
	blocks := span / morph.Arity
	if n := testing.AllocsPerRun(50, func() {
		for b := 0; b < blocks; b++ {
			if err := m.Write(uint64(b*morph.Arity)*LineBytes, line); err != nil {
				t.Fatal(err)
			}
		}
		m.Store()
	}); n != 0 {
		t.Errorf("writing and writing back %d resident counter blocks allocates %v times, want 0", blocks, n)
	}
	if st := m.Stats(); st.Increments[1] < uint64(50*blocks) {
		t.Fatalf("%d level-1 increments: the write-backs being counted did not happen", st.Increments[1])
	}

	// First writes: the store keeps a new ciphertext (and, once per 128
	// lines, a new decoded counter block; its line is stored at write-back).
	fresh := uint64(span)
	if n := testing.AllocsPerRun(500, func() {
		if err := m.Write(fresh*LineBytes, line); err != nil {
			t.Fatal(err)
		}
		fresh++
	}); n > 3 {
		t.Errorf("first Write of a line allocates %v times, want at most 3", n)
	}
}
