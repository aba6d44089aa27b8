package server

import (
	"net"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/wire"
)

// TestObsInstrumentation drives an instrumented server end to end and
// checks per-op histograms, the admission collector and request trace
// events in the registry's snapshot, the body /metricz serves.
func TestObsInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	tr := reg.Tracer()
	sh := testShards(t, 2, 1<<16)
	addr, shutdown := startServer(t, sh, Config{Obs: reg})
	defer shutdown()

	cl, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	line := make([]byte, 64)
	const writes, reads = 10, 5
	for i := 0; i < writes; i++ {
		if err := cl.Write(uint64(i)*64, line); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < reads; i++ {
		if _, err := cl.Read(uint64(i) * 64); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Histograms["server.op.write.latency"].Count; got != writes {
		t.Fatalf("write op samples = %d, want %d", got, writes)
	}
	if got := snap.Histograms["server.op.read.latency"].Count; got != reads {
		t.Fatalf("read op samples = %d, want %d", got, reads)
	}
	if snap.Histograms["server.op.write.latency"].P50 == 0 {
		t.Fatal("write op p50 is zero")
	}
	if snap.Counters["server.accepted"] != 1 {
		t.Fatalf("accepted = %d, want 1", snap.Counters["server.accepted"])
	}
	if snap.Counters["server.pings"] != 1 {
		t.Fatalf("pings = %d, want 1", snap.Counters["server.pings"])
	}
	// The client is sequential and every request has been answered.
	if g, ok := snap.Gauges["server.inflight"]; !ok || g != 0 {
		t.Fatalf("inflight gauge = %d (present=%v), want 0 between requests", g, ok)
	}

	// One event per admitted request (pings bypass the gate and are never
	// traced); its start is Time-Dur.
	if ends := tr.Count(obs.KindReqEnd); ends != writes+reads {
		t.Fatalf("traced requests = %d, want %d", ends, writes+reads)
	}
	var sawEndWithDur bool
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindReqEnd && ev.Dur > 0 {
			sawEndWithDur = true
		}
	}
	if !sawEndWithDur {
		t.Fatal("no ReqEnd event carries a duration")
	}
}

// TestObsDisabled checks an uninstrumented server runs requests exactly as
// before: no registry, no tracer, nothing to record into.
func TestObsDisabled(t *testing.T) {
	sh := testShards(t, 1, 1<<14)
	addr, shutdown := startServer(t, sh, Config{})
	defer shutdown()

	cl, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Write(0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(0); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkServedOp is the instrumentation overhead budget (≤5 %) measured
// where instrumentation runs: one served READ and one WRITE per iteration
// over net.Pipe, driven with a bare FrameWriter/FrameReader as in
// TestServedOpsDoNotAllocate, uninstrumented (bare) against a registry and its
// event ring (obs). Compare the two ns/op figures:
//
//	go test -run '^$' -bench ServedOp -count 10 ./internal/server/
func BenchmarkServedOp(b *testing.B) {
	for _, mode := range []struct {
		name string
		cfg  func() Config
	}{
		{"bare", func() Config { return Config{} }},
		{"obs", func() Config { return Config{Obs: obs.NewRegistry()} }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			srv := New(testShards(b, 2, 1<<16), mode.cfg())
			near, far := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				srv.serveConn(far)
			}()
			defer func() {
				near.Close()
				<-done
			}()
			fw, fr := wire.NewFrameWriter(near), wire.NewFrameReader(near)
			call := func(op byte, payload []byte) {
				if err := fw.WriteFrame(op, payload); err != nil {
					b.Fatal(err)
				}
				if status, body, err := fr.ReadFrame(); err != nil || status != wire.StatusOK {
					b.Fatalf("%s: status %#x body %q err %v", wire.OpName(op), status, body, err)
				}
			}
			const lines = 64
			line := oracle.Fill(0, 2)
			var req []byte
			op := func(i int) {
				addr := uint64(i*7%lines) * secmem.LineBytes
				var err error
				if req, err = wire.AppendWrite(req[:0], addr, line); err != nil {
					b.Fatal(err)
				}
				call(wire.OpWrite, req)
				call(wire.OpRead, wire.AppendAddr(req[:0], addr))
			}
			for i := 0; i < 2*lines; i++ { // every line resident, every buffer grown
				op(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(i)
			}
		})
	}
}
