package main

import (
	"testing"
	"time"
)

func TestQuantileIsNearestRank(t *testing.T) {
	hundred := make([]uint32, 100)
	for i := range hundred {
		hundred[i] = uint32(i + 1)
	}
	for _, c := range []struct {
		sorted []uint32
		q      float64
		want   float64
	}{
		{hundred, 0.5, 50},
		{hundred, 0.99, 99},
		{hundred, 1, 100},
		{[]uint32{7}, 0.99, 7},
		{[]uint32{1, 2, 3}, 0.5, 2},
		{[]uint32{1, 2, 3, 4}, 0.5, 2},
		{nil, 0.5, 0},
	} {
		if got := quantile(c.sorted, c.q); got != c.want {
			t.Errorf("quantile(n=%d, %.2f) = %v, want %v", len(c.sorted), c.q, got, c.want)
		}
	}
}

func testBuf(t *testing.T, capacity, windows int) *sampleBuf {
	t.Helper()
	b, err := newSampleBuf(capacity, windows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.release)
	return b
}

func TestSampleKeepsKindAndClamps(t *testing.T) {
	s := makeSample(1500*time.Nanosecond, true)
	if !s.write() || s.ns() != 1500 {
		t.Errorf("write sample decoded as write=%v ns=%d", s.write(), s.ns())
	}
	s = makeSample(3*time.Second, false)
	if s.write() || s.ns() != sampleMaxNS {
		t.Errorf("over-long read sample decoded as write=%v ns=%d, want clamped to %d", s.write(), s.ns(), uint32(sampleMaxNS))
	}
}

// Three one-second windows from two callers. Reads: window 0 holds 1..100 us
// (p99 99 us), window 1 holds 100 samples of 10 us and one of 500 (p99 10 us),
// window 2 holds one read of 7 us. Writes appear in window 1 only.
func TestSummarizeTakesMedianOfWindowP99s(t *testing.T) {
	a, b := testBuf(t, 1000, 3), testBuf(t, 1000, 3)
	for i := 1; i <= 100; i++ {
		buf := a
		if i%2 == 0 {
			buf = b
		}
		buf.record(0, makeSample(time.Duration(i)*time.Microsecond, false))
	}
	for i := 0; i < 100; i++ {
		a.record(1, makeSample(10*time.Microsecond, false))
	}
	a.record(1, makeSample(500*time.Microsecond, false))
	b.record(1, makeSample(40*time.Microsecond, true))
	b.record(1, makeSample(60*time.Microsecond, true))
	b.record(2, makeSample(7*time.Microsecond, false))

	got := summarize([]*sampleBuf{a, b}, 3)
	reads, writes := got[0], got[1]
	if reads.count != 202 || writes.count != 2 {
		t.Errorf("counts = %d reads, %d writes; want 202, 2", reads.count, writes.count)
	}
	// Window p99s are 99, 10 and 7 us: the median is 10.
	if reads.p99 != 10_000 {
		t.Errorf("read p99 = %v ns, want 10000 (median of per-window p99s)", reads.p99)
	}
	// 202 reads sorted: 1..6, two 7s, 8, 9, then 101 tens (ranks 11..111,
	// one of them from window 0): rank 101 is 10 us.
	if reads.p50 != 10_000 {
		t.Errorf("read p50 = %v ns, want 10000", reads.p50)
	}
	// A window without a write does not count as a p99 of 0.
	if writes.p50 != 40_000 || writes.p99 != 60_000 {
		t.Errorf("write p50, p99 = %v, %v; want 40000, 60000", writes.p50, writes.p99)
	}
	if reads.minWin != 1 || writes.minWin != 0 {
		t.Errorf("fewest samples in a window = %d reads, %d writes; want 1, 0", reads.minWin, writes.minWin)
	}
}

func TestSampleBufWindowsWithGapsAndOverflow(t *testing.T) {
	b := testBuf(t, 3, 4)
	b.record(0, makeSample(1, false))
	b.record(3, makeSample(2, false)) // windows 1 and 2 stay empty
	b.record(3, makeSample(3, false))
	b.record(3, makeSample(4, false)) // beyond capacity
	for w, want := range []int{1, 0, 0, 2} {
		if got := len(b.window(w)); got != want {
			t.Errorf("window %d holds %d samples, want %d", w, got, want)
		}
	}
	if b.dropped != 1 {
		t.Errorf("dropped = %d, want 1", b.dropped)
	}
}

func TestSelfTimeSubtractsTheCoveredPart(t *testing.T) {
	parent := spanRec{Start: 100, End: 200}
	for _, c := range []struct {
		child spanRec
		want  int64
	}{
		{spanRec{Start: 120, End: 170}, 50},
		{spanRec{Start: 50, End: 150}, 50},  // starts early: only the overlap counts
		{spanRec{Start: 180, End: 260}, 80}, // ends late
		{spanRec{Start: 300, End: 400}, 100},
		{spanRec{Start: 100, End: 200}, 0},
	} {
		if got := selfTime(parent, c.child); got != c.want {
			t.Errorf("selfTime(%v, %v) = %d, want %d", parent, c.child, got, c.want)
		}
	}
}

func TestSpanMetricsSplitByKind(t *testing.T) {
	tr := &tracedRun{
		writes: []bool{false, true, false},
		client: []spanRec{{0, 100}, {100, 400}, {400, 520}},
		engine: []spanRec{{10, 30}, {150, 350}, {410, 440}},
	}
	client, engine, self := tr.spanMetrics()
	if client != [2]float64{100, 300} || engine != [2]float64{20, 200} {
		t.Errorf("client p50 = %v, engine p50 = %v; want [100 300], [20 200]", client, engine)
	}
	if self != 90 { // self times 80, 100, 90
		t.Errorf("self p50 = %v, want 90", self)
	}
}

func TestMixedWeighsMediansByTheOpMix(t *testing.T) {
	if got := (opTime{read: 1000, write: 9000}).mixed(0.25); got != 3000 {
		t.Errorf("mixed(0.25) = %v, want 3000", got)
	}
	if got := median([]float64{5, 1, 9, 3}); got != 4 {
		t.Errorf("median of an even count = %v, want 4", got)
	}
}

func TestGrownSinceCountsGrowthAndNewFiles(t *testing.T) {
	before := map[string]int64{"wal.1-0": 100, "wal.1-1": 50, "gone": 10}
	now := map[string]int64{"wal.1-0": 180, "wal.1-1": 50, "delta.2.1": 40}
	grown, created := grownSince(now, before)
	if grown != 120 || created != 1 {
		t.Errorf("grownSince = %d bytes, %d new files; want 120, 1", grown, created)
	}
}
