package secmem

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"github.com/securemem/morphtree/internal/counters"
	"github.com/securemem/morphtree/internal/racedetect"
)

// The store keeps its lines in paged tables (store.go). These tests hold the
// tables against the maps and flat stamp arrays they replaced, which live on
// in mapmodel_test.go: one store-level history goes to both, and every answer,
// every collected delta and every saved byte must agree.

// tablePair is a table-backed engine and the map model, driven together.
type tablePair struct {
	t testing.TB
	m *Memory
	e *mapEngine
}

func newTablePair(t testing.TB) *tablePair {
	// 8 MiB of MorphCtr-128: four data directories, 1 024 level-0 lines in
	// sixteen chunks, eight level-1 lines, the root above them.
	m, err := New(morphConfig(8 << 20))
	if err != nil {
		t.Fatal(err)
	}
	return &tablePair{t: t, m: m, e: newMapEngine(m)}
}

// putData and putCtr store a line the way the engine does: bytes, MAC and
// dirty stamp together.
func (p *tablePair) putData(d uint64, fill byte, lineMAC uint64) {
	c, i := p.m.store.data.grow(d), d%chunkLines
	copy(c.line[i][:], line(fill))
	p.m.sealData(c, i, lineMAC)
	p.e.data[d], p.e.dataMAC[d], p.e.dirtyData[d] = line(fill), lineMAC, p.e.cur
}

func (p *tablePair) putCtr(level int, idx uint64, fill byte) {
	p.m.store.SetCounterLine(level, idx, line(fill))
	p.m.store.levels[level].at(idx).mark(idx%chunkLines, p.m.dirtyCur)
	p.e.levels[level][idx], p.e.dirtyCtr[level][idx] = line(fill), p.e.cur
}

// collect cuts a delta on both sides and compares them line for line, then
// commits it on both or — a checkpoint that failed — on neither.
func (p *tablePair) collect(commit bool) {
	p.t.Helper()
	var want []DirtyLine
	cut, got := drainCut(p.t, p.m)
	wantCut := p.e.collect(func(d DirtyLine) { want = append(want, d) })
	if cut.epoch != wantCut || got[0].Level != int32(p.m.geom.RootLevel()) {
		p.t.Fatalf("cut %d (model %d), %d lines", cut.epoch, wantCut, len(got))
	}
	if got = got[1:]; len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
		p.t.Fatalf("cut %d: the table collects %d lines, the map model %d, or not the same ones in the same order", cut.epoch, len(got), len(want))
	}
	if commit {
		cut.Commit()
		p.e.floor = wantCut + 1
	} else {
		cut.Abort()
	}
}

// full cuts a full image of the table, holds it to the map model's Save, and
// commits it: every line is clean on both sides from then on.
func (p *tablePair) full() {
	p.t.Helper()
	cut, err := p.m.BeginFullCut()
	if err != nil {
		p.t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := cut.WriteRecords(&got); err != nil {
		p.t.Fatal(err)
	}
	p.e.save(p.m, &want)
	if !bytes.Equal(got.Bytes(), want.Bytes()[HeaderBytes:]) {
		p.t.Fatal("a full cut of the table is not, byte for byte, the map store's image")
	}
	cut.Commit()
	p.e.cur++
	p.e.floor = p.e.cur
}

// check compares everything both sides hold.
func (p *tablePair) check() {
	p.t.Helper()
	if n, want := p.m.DirtyCount(), p.e.dirtyCount(); n != want {
		p.t.Fatalf("DirtyCount %d, the map model's %d", n, want)
	}
	if !reflect.DeepEqual(modelOf(p.m.store), p.e.mapStore) {
		p.t.Fatal("the table and the map model hold different lines")
	}
	var got, want bytes.Buffer
	if err := p.m.Save(&got); err != nil {
		p.t.Fatal(err)
	}
	p.e.cur++ // Save's full cut took an epoch, and was aborted
	p.e.save(p.m, &want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		p.t.Fatal("Save of the table is not, byte for byte, the map store's")
	}
	// What lets a collection skip a chunk: newest is the latest stamp in it.
	newestHolds := func(base uint64, newest uint32, stamp *[chunkLines]uint32) {
		var latest uint32
		for _, s := range stamp {
			latest = max(latest, s)
		}
		if newest != latest {
			p.t.Fatalf("chunk at %d: newest stamp %d, latest stamp in it %d", base, newest, latest)
		}
	}
	_ = p.m.store.data.chunks(func(base uint64, c *chunk[dataExt]) error {
		newestHolds(base, c.newest, &c.stamp)
		return nil
	})
	for _, level := range p.m.store.levels {
		_ = level.chunks(func(base uint64, c *chunk[ctrExt]) error {
			newestHolds(base, c.newest, &c.stamp)
			return nil
		})
	}
}

// run plays a history, six bytes an op. engineOnly keeps to what the engine
// itself does to its store — stores and collections; otherwise the adversary
// interface joins in: splices, forged MACs, deletions, replays, bit flips.
func (p *tablePair) run(history []byte, engineOnly bool) {
	p.t.Helper()
	g, s, e := p.m.geom, p.m.store, p.e.mapStore
	for ; len(history) >= 6; history = history[6:] {
		op, fill, x := history[0], history[4], history[5]
		raw := uint64(history[1])<<16 | uint64(history[2])<<8 | uint64(history[3])
		// Half the indices crowd into a few chunks, half spread over all.
		d, level := raw%g.DataLines, int(x>>1)%g.RootLevel()
		idx := raw % g.LevelEntries(level)
		if x&1 == 0 {
			d, idx = raw%512+uint64(x>>6)*30000, idx%96
		}
		if engineOnly {
			op = op % 8
			if op == 7 {
				op = 12 + fill&1
			}
		}
		switch op % 16 {
		case 0, 1, 2, 3, 4:
			p.putData(d, fill, raw*0x9E3779B97F4A7C15)
		case 5, 6:
			p.putCtr(level, idx, fill)
		case 7: // get
			chain := [][2]uint64{{uint64(level), idx}}
			if !reflect.DeepEqual(s.Snapshot(d, chain), e.Snapshot(d, chain)) {
				p.t.Fatalf("data line %d, level-%d line %d: the table and the map model answer differently", d, level, idx)
			}
		case 8: // delete: replay a tuple captured where nothing was
			absent := Tuple{dataIdx: d, counters: []counterSnapshot{{level: level, idx: idx}}}
			s.Replay(absent)
			e.Replay(absent)
		case 9: // replay a captured tuple over whatever is there now
			chain := [][2]uint64{{uint64(level), idx}}
			tuple := s.Snapshot(d, chain)
			p.putData(d, fill, raw)
			s.Replay(tuple)
			e.Replay(tuple)
		case 10:
			if s.FlipBit(d, int(fill), uint(x)) != e.FlipBit(d, int(fill), uint(x)) ||
				s.FlipCounterBit(level, idx, int(x), uint(fill)) != e.FlipCounterBit(level, idx, int(x), uint(fill)) {
				p.t.Fatalf("flip at data line %d or level-%d line %d: one side had the line, the other not", d, level, idx)
			}
		case 11: // a spliced line, a forged MAC, a bare counter line
			// Only over a stored line: the table keeps a line and its MAC
			// present or absent together, which the maps did not enforce.
			switch _, stored := s.DataLine(d); {
			case stored && fill&1 == 0:
				s.SetDataLine(d, line(x))
				e.SetDataLine(d, line(x))
			case stored:
				s.SetDataMAC(d, raw)
				e.SetDataMAC(d, raw)
			default:
				s.SetCounterLine(level, idx, line(x))
				e.SetCounterLine(level, idx, line(x))
			}
		case 12:
			p.collect(true)
		case 13:
			p.collect(false)
		case 14:
			if fill < 32 {
				p.full()
			}
		case 15:
			if fill < 8 {
				p.check()
			}
		}
	}
	p.check()
	p.collect(true)
	if n := p.m.DirtyCount(); n != 0 {
		p.t.Fatalf("%d lines dirty after a committed collection", n)
	}
}

func randomHistory(seed int64, ops int) []byte {
	if racedetect.Enabled {
		ops /= 8 // the map model scans a stamp per line of capacity at every collection
	}
	history := make([]byte, 6*ops)
	rand.New(rand.NewSource(seed)).Read(history)
	return history
}

func TestLineTableMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		newTablePair(t).run(randomHistory(seed, 12000), false)
	}
}

// TestSaveBytesMatchMapStore is the same comparison on the history an engine
// produces — stores and collections only, no adversary: the Save stream and
// every delta, in order, are what the map-backed store wrote.
func TestSaveBytesMatchMapStore(t *testing.T) {
	for seed := int64(11); seed <= 12; seed++ {
		newTablePair(t).run(randomHistory(seed, 12000), true)
	}
}

func FuzzLineTable(f *testing.F) {
	f.Add(randomHistory(1, 64))
	f.Add(randomHistory(2, 512))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 8, 0, 0, 0, 1, 1, 12, 0, 0, 0, 0, 0, 15, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, history []byte) {
		if len(history) > 6*4096 {
			history = history[:6*4096]
		}
		newTablePair(t).run(history, false)
	})
}

// Map order made VerifyAll's "first" violation arbitrary; the table walks in
// address order, so it is the lowest-addressed one, every time.
func TestVerifyAllReportsLowestIndex(t *testing.T) {
	m := mustNew(t, morphConfig(8<<20))
	written := []uint64{3, 64, 65, 700, 4095, 4096, 40000, 70001, 131071}
	for _, d := range written {
		if err := m.Write(d*LineBytes, line(byte(d))); err != nil {
			t.Fatal(err)
		}
	}
	// Tampered in no particular order, across chunks and directories.
	for _, d := range []uint64{70001, 700, 4096, 131071} {
		if !m.Store().FlipBit(d, 9, 2) {
			t.Fatalf("line %d is not stored", d)
		}
	}
	for i := 0; i < 20; i++ {
		var ie *IntegrityError
		if err := m.VerifyAll(); !errors.As(err, &ie) || ie.Level != -1 || ie.Index != 700 {
			t.Fatalf("VerifyAll reports %v, want the violation at data line 700", err)
		}
	}
}

// heapAfter runs fn and returns how much the live heap grew across it.
func heapAfter(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// The store's resident cost per stored line, everything counted (chunks and
// their line blocks, directories, counter chunks, cached blocks): a dense span
// pays a data chunk per 64 lines, 4 096 + 896 bytes, so about 82 B a line
// against ~200 B in the maps; the worst case, one line per page, pays the
// whole chunk and its share of the counter chunks. SC-64 has a four-level tree
// and twice MorphCtr-128's counter lines per data line.
func TestStoreFootprint(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("heap sizes mean nothing under the race detector")
	}
	const lines = 1 << 15
	for _, org := range []struct {
		name          string
		cfg           Config
		dense, sparse float64 // at most, bytes per stored line
	}{
		{"MorphCtr-128", morphConfig(256 << 20), 84, 5.2 * 1024},
		{"SC-64", Config{MemoryBytes: 256 << 20, Enc: counters.SplitSpec(64), Tree: []counters.Spec{counters.SplitSpec(64)}, Key: testKey}, 92, 5.5 * 1024},
	} {
		var m *Memory
		perLine := func(stride uint64) float64 {
			grew := heapAfter(func() {
				m = mustNew(t, org.cfg)
				for d := uint64(0); d < lines; d++ {
					if err := m.Write(d*stride*LineBytes, line(byte(d))); err != nil {
						t.Fatal(err)
					}
				}
				m.Store() // write back, so every counter line is stored too
			})
			return float64(grew) / lines
		}
		if dense := perLine(1); dense > org.dense {
			t.Errorf("%s, dense span: %.1f resident bytes per stored line, want at most %.0f", org.name, dense, org.dense)
		} else {
			t.Logf("%s, dense span: %.1f resident bytes per stored line", org.name, dense)
		}
		if sparse := perLine(chunkLines); sparse > org.sparse {
			t.Errorf("%s, one line per page: %.0f resident bytes per stored line, want at most %.1f KiB", org.name, sparse, org.sparse/1024)
		} else {
			t.Logf("%s, one line per page: %.0f resident bytes per stored line", org.name, sparse)
		}
		runtime.KeepAlive(m)
	}
}

// The store's two kinds of chunk and their line block, each against the Go
// allocator size class it is laid out to fill (runtime/sizeclasses.go): 896
// bytes for a data chunk, 1 408 for a counter chunk, 4 096 for the lines. A
// field that pushes one past its class costs every page a whole class step,
// which TestStoreFootprint would show only as a drift in a heap figure.
func TestStoreObjectsFitTheirClasses(t *testing.T) {
	for _, o := range []struct {
		name      string
		size, max uintptr
	}{
		{"data chunk", unsafe.Sizeof(chunk[dataExt]{}), 896},
		{"counter chunk", unsafe.Sizeof(chunk[ctrExt]{}), 1408},
	} {
		if o.size > o.max {
			t.Errorf("%s: %d bytes, over its %d-byte size class", o.name, o.size, o.max)
		}
	}
	if n := unsafe.Sizeof([chunkLines][LineBytes]byte{}); n != 4096 {
		t.Errorf("line block: %d bytes, want exactly 4 096 (the size class it fills)", n)
	}
}

// New allocates nothing per line of capacity: 64 GiB costs its directories,
// 8 bytes per 2 MiB, not the 4 GiB of stamps it used to.
func TestNewAllocatesNoPerLineState(t *testing.T) {
	const capacity = 64 << 30
	var m *Memory
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m = mustNew(t, morphConfig(capacity))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > capacity>>16 {
		t.Errorf("New(64 GiB) allocates %d bytes, want at most %d", got, capacity>>16)
	}
	if err := m.Write(capacity-LineBytes, line(1)); err != nil {
		t.Fatal(err)
	}
	if got, err := m.Read(capacity - LineBytes); err != nil || !bytes.Equal(got, line(1)) {
		t.Fatalf("last line of 64 GiB: %v", err)
	}
	if n := m.DirtyCount(); n != 1+m.geom.RootLevel() {
		t.Fatalf("%d lines dirty after one write and its write-back, want the line and its %d counter lines", n, m.geom.RootLevel())
	}
}

// A cut copies no line it does not have to: the benchmark's checkpoint, 32 768
// written lines and the counter lines over them, costs the cut, the root's
// encoding and one chunk's worth of records, where the freeze it replaced
// cloned every line into its own object (9.8 MiB in 33 073 of them).
func TestCutAllocatesNoPerLineState(t *testing.T) {
	m := mustNew(t, morphConfig(32<<20))
	const lines = 1 << 15
	for d := uint64(0); d < lines; d++ {
		if err := m.Write(d*LineBytes, line(byte(d))); err != nil {
			t.Fatal(err)
		}
	}
	m.Store() // the write-back is the engine's cost, and happens without a cut too
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cut, err := m.BeginCut()
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	if err := cut.Drain(func(rec []byte) error { records += len(rec); return nil }); err != nil {
		t.Fatal(err)
	}
	cut.Commit()
	runtime.ReadMemStats(&after)
	if cut.N() < lines+lines/128 || records != cut.N()*(LineBytes+24) {
		t.Fatalf("a cut of %d lines in %d bytes of records, want the %d written and their counter lines", cut.N(), records, lines)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Errorf("a cut of %d lines allocates %d bytes, want at most 256 KiB", cut.N(), got)
	} else {
		t.Logf("a cut of %d lines allocates %d bytes", cut.N(), got)
	}
}
