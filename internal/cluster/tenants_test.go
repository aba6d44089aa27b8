package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wire"
)

// tenantCfg is testShardCfg with tenants: 2 shards of 512 lines, so each of
// two tenants gets 512 lines.
func tenantCfg(t *testing.T, ids ...string) shard.Config {
	shcfg := testShardCfg(t, 2, 1<<16)
	shcfg.Tenants = ids
	return shcfg
}

// TestTenantWritesSurviveFailover: tenant writes acknowledged on the primary
// survive a Promote/Follow failover and read back, through the new primary,
// as the oracle's history admits, sealed in the same tenants' key domains.
func TestTenantWritesSurviveFailover(t *testing.T) {
	shcfg := tenantCfg(t, "alpha", "beta")
	p := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Primary = true; c.AckReplicas = 1 })
	a := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Leader = p.addr })
	b := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Leader = p.addr })
	a.node.SetPeers([]string{p.addr, b.addr})
	b.node.SetPeers([]string{p.addr, a.addr})

	rc := wire.NewResilient(wire.ResilientConfig{
		Addrs:       []string{p.addr, a.addr, b.addr},
		Timeout:     time.Second,
		MaxAttempts: 30,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		RetryWrites: true,
		Seed:        11,
	})
	defer rc.Close()
	h := oracle.New(oracle.Zeros)
	write := func(round uint64) {
		for _, id := range shcfg.Tenants {
			base, _, _ := p.node.TenantRange(id)
			for k := uint64(0); k < 12; k++ {
				addr := base + (k+round)%16*secmem.LineBytes
				seq, line := h.Invoke(addr)
				err := rc.Write(addr, line)
				h.Settle(addr, seq, err)
				if err != nil {
					t.Fatalf("round %d write %#x: %v", round, addr, err)
				}
			}
		}
	}
	write(0)

	p.kill()
	time.Sleep(200 * time.Millisecond) // let the lease expire
	ra, rb := a.node.Route(), b.node.Route()
	min := maxMarks(ra.Marks, rb.Marks)
	candidate, other := a, b
	if !covers(ra.Marks, min) {
		candidate, other = b, a
	}
	if _, err := candidate.node.Promote(2, min); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := other.node.Follow(2, candidate.addr); err != nil {
		t.Fatalf("follow: %v", err)
	}
	write(1)

	if tally := h.Audit(rc.Read); tally.Bad() != 0 {
		t.Fatalf("read-back through the new primary: %s", tally)
	}
	if err := candidate.node.VerifyAll(); err != nil {
		t.Fatalf("new primary VerifyAll: %v", err)
	}
	if ri := candidate.node.Route(); ri.Role != RolePrimary {
		t.Fatalf("candidate route = %+v", ri)
	}
	// The new primary sealed the writes after the failover in the tenants'
	// own domains, at the ranges the old primary had.
	for _, id := range shcfg.Tenants {
		was, _, _ := p.node.TenantRange(id)
		if base, _, ok := candidate.node.TenantRange(id); !ok || base != was {
			t.Fatalf("tenant %s: range at %#x (%v) on the new primary, %#x on the old", id, base, ok, was)
		}
		if n := candidate.node.Stats().Tenants[id].Writes; n == 0 {
			t.Fatalf("tenant %s: the new primary sealed no write in its domain", id)
		}
	}
}

// TestReplicaWithOtherTenantsIsRefused: a primary refuses the polls of a
// replica with another tenant list, or none, with a typed
// *shard.MismatchError before anything is shipped — the replica applies
// nothing and says why in its log — and a refused poll at a higher epoch
// moves neither the primary's role nor its epoch.
func TestReplicaWithOtherTenantsIsRefused(t *testing.T) {
	shcfg := tenantCfg(t, "alpha", "beta")
	p := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Primary = true })
	var mu sync.Mutex
	var logs strings.Builder
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(&logs, format+"\n", args...)
	}
	other := startNode(t, tenantCfg(t, "alpha", "gamma"), testDCfg(t), func(c *Config) { c.Leader = p.addr; c.Logf = logf })
	plain := startNode(t, testShardCfg(t, 2, 1<<16), testDCfg(t), func(c *Config) { c.Leader = p.addr })

	cl, err := wire.Dial(p.addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := uint64(0); i < 8; i++ {
		if err := cl.Write(i*secmem.LineBytes, oracle.Fill(i*secmem.LineBytes, i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the refusal in the replica's log", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return strings.Contains(logs.String(), "tenant list")
	})
	time.Sleep(50 * time.Millisecond) // ten poll retries
	for name, n := range map[string]*testNode{"other list": other, "no list": plain} {
		if marks := n.node.memory().SyncedLSNs(); marks[0]+marks[1] != 0 {
			t.Errorf("replica with %s applied records up to %v", name, marks)
		}
	}

	for _, digest := range [][]byte{durable.TenantDigest(tenantCfg(t, "alpha", "gamma")), nil} {
		_, err := p.node.Replicate(&wire.ReplicateRequest{Epoch: 9, Node: "x", Marks: []uint64{0, 0}, Tenants: digest, CWRecords: true, PagedBootstrap: true})
		var me *shard.MismatchError
		if !errors.As(err, &me) || me.Field != "tenants" {
			t.Fatalf("poll with tenant digest %x: %v, want a tenants *shard.MismatchError", digest, err)
		}
	}
	if ri := p.node.Route(); ri.Role != RolePrimary || ri.Epoch != 1 || len(ri.Nodes) != 1 {
		t.Fatalf("primary after refused polls: %+v, want the only node, primary at epoch 1", ri)
	}
}
