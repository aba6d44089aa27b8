package shard

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/secmem"
)

// TestTenantRouting covers the sharded tenant surface: registration,
// per-tenant key-domain routing across shards, and cross-tenant denial
// with a typed IntegrityError on every shard.
func TestTenantRouting(t *testing.T) {
	s := mustNew(t, testConfig(t, 4, 1<<16, "morph128"))
	if err := s.RegisterTenants([]string{"alpha", "beta"}); err != nil {
		t.Fatal(err)
	}
	if len(s.tenants) != 2 {
		t.Fatalf("registered tenants = %v", s.tenants)
	}

	// One line per shard: striped addresses land on different shards.
	for i := uint64(0); i < 4; i++ {
		addr := i * secmem.LineBytes
		line := bytes.Repeat([]byte{byte(0xA0 + i)}, secmem.LineBytes)
		if err := s.TenantWrite("alpha", addr, line); err != nil {
			t.Fatalf("shard %d write: %v", i, err)
		}
		got, err := s.TenantRead(nil, "alpha", addr)
		if err != nil {
			t.Fatalf("shard %d owner read: %v", i, err)
		}
		if !bytes.Equal(got, line) {
			t.Fatalf("shard %d wrong contents", i)
		}
		_, err = s.TenantRead(nil, "beta", addr)
		var ie *secmem.IntegrityError
		if !errors.As(err, &ie) {
			t.Fatalf("shard %d cross-tenant read = %v, want *IntegrityError", i, err)
		}
		// The default (single-tenant) path must be denied too.
		if _, err := s.Read(addr); err == nil {
			t.Fatalf("shard %d default read of tenant line succeeded", i)
		}
	}

	if _, err := s.TenantRead(nil, "nobody", 0); err == nil {
		t.Fatal("unknown tenant read succeeded")
	}
	if err := s.TenantWrite("nobody", 0, make([]byte, secmem.LineBytes)); err == nil {
		t.Fatal("unknown tenant write succeeded")
	}
	if err := s.RegisterTenants([]string{"dup", "dup"}); err == nil {
		t.Fatal("duplicate tenant ids accepted")
	}
}

// TestTenantMetrics checks the per-tenant traffic collector: reads and
// writes aggregate across shards under the tenant.<id>. namespace.
func TestTenantMetrics(t *testing.T) {
	cfg := testConfig(t, 2, 1<<15, "morph128")
	reg := obs.NewRegistry()
	cfg.Obs = reg
	s := mustNew(t, cfg)
	if err := s.RegisterTenants([]string{"alpha"}); err != nil {
		t.Fatal(err)
	}
	s.RegisterMetrics(reg)
	line := make([]byte, secmem.LineBytes)
	for i := uint64(0); i < 4; i++ {
		if err := s.TenantWrite("alpha", i*secmem.LineBytes, line); err != nil {
			t.Fatal(err)
		}
		if _, err := s.TenantRead(nil, "alpha", i*secmem.LineBytes); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	for _, name := range []string{"tenant.alpha.reads", "tenant.alpha.writes"} {
		if got := snap.Counters[name]; got != 4 {
			t.Errorf("%s = %d, want 4 (counters: %v)", name, got, snap.CounterNames())
		}
	}
	agg := s.Stats()
	if agg.Tenants["alpha"] != (secmem.TenantOps{Reads: 4, Writes: 4}) {
		t.Fatalf("aggregated tenant ops = %+v", agg.Tenants["alpha"])
	}
}

// TestTenantKeyDomainsDiffer guards the derivation: distinct tenants on
// the same shard must get distinct domains (a shared key would silently
// void isolation), and the same tenant on distinct shards likewise.
func TestTenantKeyDomainsDiffer(t *testing.T) {
	s := mustNew(t, testConfig(t, 2, 1<<15, "morph128"))
	ids := make([]string, 3)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%d", i)
	}
	if err := s.RegisterTenants(ids); err != nil {
		t.Fatal(err)
	}
	// Write the same plaintext at the same address under each tenant; the
	// engine rejects any other tenant reading it back, which is only
	// possible if every tenant's domain key differs.
	line := bytes.Repeat([]byte{0x77}, secmem.LineBytes)
	for _, id := range ids {
		if err := s.TenantWrite(id, 0, line); err != nil {
			t.Fatal(err)
		}
		for _, other := range ids {
			_, err := s.TenantRead(nil, other, 0)
			if other == id && err != nil {
				t.Fatalf("owner %s read: %v", other, err)
			}
			if other != id && err == nil {
				t.Fatalf("tenant %s read %s's line", other, id)
			}
		}
	}
}
