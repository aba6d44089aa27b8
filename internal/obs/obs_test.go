package obs

import (
	"sync"
	"testing"
)

func TestCounterConcurrentSum(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.adds")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("same name returned distinct counters")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same name returned distinct gauges")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name returned distinct histograms")
	}
	if r.Counter("a") == r.Counter("b") {
		t.Fatal("distinct names shared a counter")
	}
}

func TestNilSafety(t *testing.T) {
	// Every instrument obtained from a nil registry must be inert, and
	// every method on it a no-op: this is the "observability off" mode.
	var r *Registry
	c := r.Counter("c")
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter not inert")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 0 {
		t.Fatal("nil gauge not inert")
	}
	h := r.Histogram("h")
	h.Record(5)
	h.RecordValue(9)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram not inert")
	}
	r.RegisterCollector(func(emit func(string, uint64)) { emit("x", 1) })
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	var tr *Tracer
	tr.Emit(KindReplBatch, 0, 1, 2, 3)
	if got := tr.Events(); got != nil {
		t.Fatalf("nil tracer events = %v, want nil", got)
	}
	if tr.Count(KindReplBatch) != 0 {
		t.Fatal("nil tracer count non-zero")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("inflight")
	g.Add(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge = %d, want 3", g.Value())
	}
	g.Set(-1)
	if g.Value() != -1 {
		t.Fatalf("gauge = %d, want -1", g.Value())
	}
}

func TestCollector(t *testing.T) {
	r := NewRegistry()
	r.Counter("direct").Add(2)
	r.RegisterCollector(func(emit func(string, uint64)) {
		emit("pulled.a", 10)
		emit("pulled.b", 20)
	})
	snap := r.Snapshot()
	if snap.Counters["direct"] != 2 {
		t.Fatalf("direct = %d, want 2", snap.Counters["direct"])
	}
	if snap.Counters["pulled.a"] != 10 || snap.Counters["pulled.b"] != 20 {
		t.Fatalf("collector counters missing: %v", snap.Counters)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops").Add(42)
	r.Gauge("inflight").Set(-3)
	h := r.Histogram("lat")
	for v := int64(1); v <= 1000; v++ {
		h.RecordValue(v)
	}
	snap := r.Snapshot()
	b, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if got.Counters["ops"] != 42 || got.Gauges["inflight"] != -3 {
		t.Fatalf("scalar round trip mismatch: %+v", got)
	}
	hs := got.Histograms["lat"]
	if hs.Count != 1000 || hs.Max != 1000 {
		t.Fatalf("histogram round trip: count=%d max=%d", hs.Count, hs.Max)
	}
	if hs.P50 != snap.Histograms["lat"].P50 {
		t.Fatalf("p50 changed in transit: %d vs %d", hs.P50, snap.Histograms["lat"].P50)
	}
}

func TestSnapshotNameOrdering(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Inc()
	r.Counter("alpha").Inc()
	r.Histogram("mid").RecordValue(1)
	r.Histogram("abc").RecordValue(1)
	snap := r.Snapshot()
	cn := snap.CounterNames()
	if len(cn) != 2 || cn[0] != "alpha" || cn[1] != "zeta" {
		t.Fatalf("counter names = %v", cn)
	}
	hn := snap.HistogramNames()
	if len(hn) != 2 || hn[0] != "abc" || hn[1] != "mid" {
		t.Fatalf("histogram names = %v", hn)
	}
}
