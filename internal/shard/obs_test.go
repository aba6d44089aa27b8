package shard

import (
	"testing"

	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/oracle"
)

// TestInstrumentedShards checks the RegisterMetrics collector exposes
// totals, the per-level overflow breakdown, and per-shard counts.
func TestInstrumentedShards(t *testing.T) {
	s := mustNew(t, testConfig(t, 4, 1<<16, "morph128"))
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)

	const writes = 256
	for i := 0; i < writes; i++ {
		addr := uint64(i) * LineBytes
		if err := s.Write(addr, oracle.Fill(addr, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		if _, err := s.Read(uint64(i) * LineBytes); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	if snap.Counters["secmem.writes"] != writes {
		t.Fatalf("collector secmem.writes = %d, want %d", snap.Counters["secmem.writes"], writes)
	}
	// Round-robin interleaving spreads 256 lines evenly over 4 shards.
	for i := 0; i < 4; i++ {
		name := "shard." + string(rune('0'+i)) + ".writes"
		if snap.Counters[name] != writes/4 {
			t.Fatalf("%s = %d, want %d", name, snap.Counters[name], writes/4)
		}
	}
	if _, ok := snap.Counters["secmem.l0.full_resets"]; !ok {
		t.Fatalf("per-level breakdown missing: %v", snap.CounterNames())
	}
}
