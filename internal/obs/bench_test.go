// The raw cost of each instrument, for the overhead budget ledger: a
// histogram record or trace emit is tens of nanoseconds. The budget itself
// (≤5 % on a served op) is measured where instrumentation runs, by
// BenchmarkServedOp in internal/server.
package obs_test

import (
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/obs"
)

func BenchmarkHistogramRecord(b *testing.B) {
	reg := obs.NewRegistry()
	h := reg.Histogram("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i))
	}
}

func BenchmarkHistogramRecordParallel(b *testing.B) {
	reg := obs.NewRegistry()
	h := reg.Histogram("bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var i int64
		for pb.Next() {
			i++
			h.Record(time.Duration(i))
		}
	})
}

func BenchmarkCounterAdd(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter("bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkTracerEmit(b *testing.B) {
	tr := obs.NewTracer(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(obs.KindReqEnd, -1, uint64(i), 0, 0)
	}
}

func BenchmarkNilInstruments(b *testing.B) {
	// The "observability off" cost: nil receivers short-circuit.
	var h *obs.Histogram
	var tr *obs.Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i))
		tr.Emit(obs.KindReqEnd, -1, 0, 0, 0)
	}
}
