package secmem

import (
	"testing"

	"github.com/securemem/morphtree/internal/counters"
	"github.com/securemem/morphtree/internal/invariant"
	"github.com/securemem/morphtree/internal/racedetect"
)

// The engine's allocation contract, as counts: a warm Read allocates the
// plaintext it returns and nothing else, and the same read appended to a
// buffer the caller reuses allocates nothing; a write allocates only what the
// store retains, which is a chunk on a page's first write and otherwise
// nothing; and writing dirty counter blocks back allocates nothing either.
// morphlint's hotalloc checks the same functions statically but does not
// count append or slices.Grow, the one allocation they are allowed, and `make
// escapes` sees only what the compiler moves to the heap; this pins the
// number.
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
	}); n != 1 {
		t.Errorf("warm Read allocates %v times, want exactly 1 (the returned plaintext)", n)
	}
	buf := make([]byte, 0, LineBytes)
	if n := testing.AllocsPerRun(500, func() {
		if _, err := m.AppendRead(buf, next()); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm AppendRead into a reused buffer allocates %v times, want 0", n)
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

	// First writes into a new page allocate its chunk and nothing else; the
	// other 63 lines of the page then cost nothing. The measured writes go to
	// odd pages whose even neighbours are written first, so the counter block
	// the two share (and the directory above them) already exists.
	page := uint64(span / chunkLines)
	for p := page; p < page+2*502; p += 2 {
		if err := m.Write(p*chunkLines*LineBytes, line); err != nil {
			t.Fatal(err)
		}
	}
	page++
	if n := testing.AllocsPerRun(500, func() {
		if err := m.Write(page*chunkLines*LineBytes, line); err != nil {
			t.Fatal(err)
		}
		page += 2
	}); n != 1 {
		t.Errorf("first Write into a new page allocates %v times, want exactly 1 (its chunk)", n)
	}
	fresh := uint64(span+1) * LineBytes // the second line of a page written above
	if n := testing.AllocsPerRun(60, func() {
		if err := m.Write(fresh, line); err != nil {
			t.Fatal(err)
		}
		fresh += LineBytes
	}); n != 0 {
		t.Errorf("first Write of a line in a resident page allocates %v times, want 0", n)
	}
}
