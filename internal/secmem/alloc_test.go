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
// store retains, which is a chunk on a page's first write (its lines and its
// metadata, two objects) and otherwise nothing; and writing dirty counter
// blocks back allocates nothing either. A cold fetch allocates the blocks it
// caches, and an overflow's re-encryption of resident lines nothing. These
// counts are the only statement of the contract (DESIGN §13): no lint
// checks it, so an allocation anywhere on these paths must show here.
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

	// First writes into a new page allocate its chunk (the 4 KiB line block
	// and the metadata beside it) and nothing else; the other 63 lines of the
	// page then cost nothing. The measured writes go to odd pages whose even
	// neighbours are written first, so the counter block the two share (and
	// the directory above them) already exists.
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
	}); n != 2 {
		t.Errorf("first Write into a new page allocates %v times, want exactly 2 (its chunk's line block and metadata)", n)
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

	// A cold verified fetch: after a flush every read walks the tree again,
	// decoding and MAC-checking one block per counter level below the root,
	// and caches each. Those blocks are all it allocates.
	if n := testing.AllocsPerRun(100, func() {
		m.FlushMetadataCache()
		if _, err := m.AppendRead(buf, next()); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("AppendRead after a metadata-cache flush allocates %v times, want exactly 2 (one block per counter level below the root)", n)
	}

	// Overflows: a line written over and over runs its minor counter out,
	// and each overflow re-encrypts the siblings whose values moved. From a
	// block written once through, like the span, the line overflows on its
	// 8th write and every 7th after, sixteen times, until the block switches
	// format and has room. So each run hammers one line of a block of its
	// own, whose siblings are all resident and rewritten where they are
	// stored, and an allocation per overflow is at least one per run.
	const runs = 20
	block := uint64(morph.Arity)
	base := uint64(1 << 19) // lines: past every page written above
	for d := base; d < base+(runs+1)*block; d++ {
		if err := m.Write(d*LineBytes, line); err != nil {
			t.Fatal(err)
		}
	}
	before := m.Stats()
	hot := base
	if n := testing.AllocsPerRun(runs, func() {
		for range 200 {
			if err := m.Write(hot*LineBytes, line); err != nil {
				t.Fatal(err)
			}
		}
		hot += block
	}); n != 0 {
		t.Errorf("writes that overflow a resident counter line allocate %v times a run, want 0", n)
	}
	if st := m.Stats(); st.Overflows[0]-before.Overflows[0] < runs+1 || st.Reencryptions == before.Reencryptions {
		t.Fatalf("%d overflows and %d re-encryptions in %d runs: not every run overflowed",
			st.Overflows[0]-before.Overflows[0], st.Reencryptions-before.Reencryptions, runs+1)
	}

	// Inside a tenant's range a write and a read take the same path under
	// the tenant's keys, and count into the row its table made: nothing more
	// to allocate, its first operation included.
	tm, err := New(Config{MemoryBytes: 64 << 20, Enc: morph, Tree: []counters.Spec{morph}, Key: testKey})
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.SetTenants([]TenantRange{{ID: "alpha", Lo: block, Hi: block + span}}); err != nil {
		t.Fatal(err)
	}
	for d := block; d < block+span; d += chunkLines { // every page resident
		if err := tm.Write(d*LineBytes, line); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(500, func() {
		addr := block*LineBytes + next()
		if err := tm.Write(addr, line); err != nil {
			t.Fatal(err)
		}
		if _, err := tm.AppendRead(buf, addr); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a write and a read in a tenant's range allocate %v times a run, want 0", n)
	}
	if ops := tm.Stats().Tenants["alpha"]; ops.Reads < 500 || ops.Writes < 500 {
		t.Fatalf("alpha's row counts %+v: the runs did not land in its range", ops)
	}
}

// A verified read into a buffer on its caller's stack leaves it there: no
// layer between AppendRead and the pad lets dst reach the heap.
func TestAppendReadIntoStackBufferDoesNotAllocate(t *testing.T) {
	if racedetect.Enabled || invariant.Enabled {
		t.Skip("allocation counts mean nothing under the race detector or with morphdebug assertions compiled in")
	}
	morph := counters.MorphSpec(true)
	m, err := New(Config{MemoryBytes: 1 << 20, Enc: morph, Tree: []counters.Spec{morph}, Key: testKey})
	if err != nil {
		t.Fatal(err)
	}
	line := make([]byte, LineBytes)
	for d := uint64(0); d < 64; d++ {
		line[0] = byte(d)
		if err := m.Write(d*LineBytes, line); err != nil {
			t.Fatal(err)
		}
	}
	var d uint64
	var sum byte
	if n := testing.AllocsPerRun(500, func() {
		var buf [LineBytes]byte
		d = (d + 1) % 64
		got, err := m.AppendRead(buf[:0], d*LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		sum += got[0]
	}); n != 0 {
		t.Errorf("AppendRead into a stack buffer allocates %v times, want 0", n)
	}
	if sum == 0 {
		t.Fatal("the reads returned no line's contents")
	}
}
