package server

import (
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/wire"
)

// TestObsInstrumentation drives an instrumented server end to end and
// checks per-op histograms, the admission collector and request trace
// events in the registry's snapshot, the body /metricz serves.
func TestObsInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1024)
	sh := testShards(t, 2, 1<<16)
	addr, shutdown := startServer(t, sh, Config{Obs: reg, Tracer: tr})
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

	// Request lifecycle events: starts and ends must pair up (pings
	// bypass the gate and are never traced).
	starts, ends := tr.Count(obs.KindReqStart), tr.Count(obs.KindReqEnd)
	if starts != ends {
		t.Fatalf("req starts %d != ends %d", starts, ends)
	}
	if starts != writes+reads {
		t.Fatalf("traced requests = %d, want %d", starts, writes+reads)
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
