package cluster

import (
	"testing"

	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/racedetect"
	"github.com/securemem/morphtree/internal/secmem"
)

// TestPrimaryAllocations pins the primary's read at the engine's zero — the
// route check in front of it allocates nothing — and reports, without
// pinning, what a write still costs once a replica has to cover it: the count
// is the whole process's, so the follower's long-poll, the batch the primary
// seals for it and both ends' wire frames are all in it.
func TestPrimaryAllocations(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	shcfg := testShardCfg(t, 2, 1<<13)
	p := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Primary = true; c.AckReplicas = 1 })
	startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Leader = p.addr })
	line := oracle.Fill(0, 1)
	for d := uint64(0); d < 16; d++ {
		if err := p.node.Write(d*secmem.LineBytes, line); err != nil {
			t.Fatal(err)
		}
	}
	var d uint64
	next := func() uint64 { d = (d + 5) % 16; return d * secmem.LineBytes }
	buf := make([]byte, 0, secmem.LineBytes)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := p.node.AppendRead(buf, next()); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a primary's AppendRead into a reused buffer allocates %v times, want 0", n)
	}
	n := testing.AllocsPerRun(100, func() {
		if err := p.node.Write(next(), line); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a write acknowledged by one replica: %v allocations in the process (reported, not pinned)", n)
}
