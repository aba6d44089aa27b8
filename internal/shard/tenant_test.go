package shard

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/secmem"
)

// TestTenantRouting covers the sharded tenant surface: registration lays
// tenants out in sorted-id order, a tenant's lines on every shard round-trip
// through the plain Write and Read, and each shard seals them under keys
// that are not its own.
func TestTenantRouting(t *testing.T) {
	cfg := testConfig(t, 4, 1<<16, "morph128")
	s, plain := mustNew(t, cfg), mustNew(t, cfg)
	if err := s.RegisterTenants([]string{"beta", "alpha"}); err != nil {
		t.Fatal(err)
	}
	const span = 512 * LineBytes // 1 024 lines / 2, a multiple of 4 shards x 128
	for id, wantBase := range map[string]uint64{"alpha": 0, "beta": span} {
		if base, size, ok := s.TenantRange(id); !ok || base != wantBase || size != span {
			t.Fatalf("%s's range = [%#x, +%#x) %v, want [%#x, +%#x)", id, base, size, ok, wantBase, span)
		}
	}
	if _, _, ok := s.TenantRange("nobody"); ok {
		t.Fatal("unknown tenant has a range")
	}

	// One line per shard in each range: striped addresses land on
	// different shards.
	for _, base := range []uint64{0, span} {
		for i := uint64(0); i < 4; i++ {
			addr := base + i*LineBytes
			line := bytes.Repeat([]byte{byte(0xA0 + i)}, LineBytes)
			for _, m := range []*Sharded{s, plain} {
				if err := m.Write(addr, line); err != nil {
					t.Fatalf("write %#x: %v", addr, err)
				}
			}
			if got, err := s.Read(addr); err != nil || !bytes.Equal(got, line) {
				t.Fatalf("tenant line %#x reads %x, %v", addr, got, err)
			}
			idx, local, _ := s.Locate(addr)
			ct, _ := s.Shard(idx).Store().DataLine(local / LineBytes)
			own, _ := plain.Shard(idx).Store().DataLine(local / LineBytes)
			if bytes.Equal(ct, own) {
				t.Fatalf("shard %d seals tenant line %#x under its own keys", idx, addr)
			}
		}
	}
	if err := s.RegisterTenants([]string{"dup", "dup"}); err == nil {
		t.Fatal("duplicate tenant ids accepted")
	}
}

// TestTenantLayout pins the layout rule: equal ranges from address 0 in
// sorted-id order, each the largest multiple of shards x the encryption
// arity that fits capacity / tenants, so no counter block on any shard
// covers lines of two tenants; and a capacity with no room for that is an
// error, not an empty range.
func TestTenantLayout(t *testing.T) {
	for _, tc := range []struct {
		shards   int
		memBytes uint64
		org      string
		tenants  int
		span     uint64 // lines; 0: RegisterTenants fails
	}{
		{4, 1 << 16, "morph128", 2, 512},
		{2, 1 << 16, "sc64", 3, 256},
		{1, 1 << 15, "morph128", 3, 128},
		{2, 1 << 16, "vault", 5, 128},
		{4, 1 << 16, "morph128", 3, 0},
		{1, 1 << 14, "morph128", 3, 0},
	} {
		name := fmt.Sprintf("%d tenants over %d lines on %d %s shards", tc.tenants, tc.memBytes/LineBytes, tc.shards, tc.org)
		s := mustNew(t, testConfig(t, tc.shards, tc.memBytes, tc.org))
		ids := make([]string, tc.tenants)
		for i := range ids {
			ids[i] = fmt.Sprintf("t%d", i)
		}
		err := s.RegisterTenants(ids)
		if tc.span == 0 {
			if err == nil {
				t.Errorf("%s: registered, want an error", name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		arity := uint64(s.Shard(0).Geometry().EncArity)
		owner := make(map[[2]uint64]string) // (shard, counter block) -> tenant
		for i, id := range ids {
			base, size, _ := s.TenantRange(id)
			if base != uint64(i)*tc.span*LineBytes || size != tc.span*LineBytes {
				t.Fatalf("%s: %s's range = [%#x, +%#x), want line %d, %d lines", name, id, base, size, uint64(i)*tc.span, tc.span)
			}
			for addr := base; addr < base+size; addr += LineBytes {
				idx, local, _ := s.Locate(addr)
				blk := [2]uint64{uint64(idx), local / LineBytes / arity}
				if o, ok := owner[blk]; ok && o != id {
					t.Fatalf("%s: shard %d's counter block %d covers %s and %s", name, idx, blk[1], o, id)
				}
				owner[blk] = id
			}
		}
	}
}

// TestTenantMetrics checks the per-tenant traffic collector: reads and
// writes in a tenant's range aggregate across shards under the tenant.<id>.
// namespace.
func TestTenantMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := mustNew(t, testConfig(t, 2, 1<<15, "morph128"))
	if err := s.RegisterTenants([]string{"alpha"}); err != nil {
		t.Fatal(err)
	}
	s.RegisterMetrics(reg)
	line := make([]byte, secmem.LineBytes)
	for i := uint64(0); i < 4; i++ {
		if err := s.Write(i*secmem.LineBytes, line); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Read(i * secmem.LineBytes); err != nil {
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
// the same shard must get distinct keys (a shared key would silently void
// isolation), and the same tenant on distinct shards likewise. Each tenant
// t<k> is the first of two in a store of its own, so it owns line 0 of every
// shard; the same writes into each store and into one without tenants leave
// the same counters, so the stored ciphertexts differ only by key.
func TestTenantKeyDomainsDiffer(t *testing.T) {
	cfg := testConfig(t, 2, 1<<15, "morph128")
	line := bytes.Repeat([]byte{0x77}, secmem.LineBytes)
	sealed := make(map[string][2][]byte) // tenant -> line 0 of shard 0 and of shard 1
	for _, id := range []string{"", "t0", "t1", "t2"} {
		s := mustNew(t, cfg)
		if id != "" {
			if err := s.RegisterTenants([]string{id, "z"}); err != nil {
				t.Fatal(err)
			}
		}
		var lines [2][]byte
		for shard := range lines {
			if err := s.Write(uint64(shard)*LineBytes, line); err != nil {
				t.Fatal(err)
			}
			lines[shard], _ = s.Shard(shard).Store().DataLine(0)
		}
		if bytes.Equal(lines[0], lines[1]) {
			t.Fatalf("tenant %q sealed line 0 alike on both shards", id)
		}
		for other, o := range sealed {
			if bytes.Equal(lines[0], o[0]) || bytes.Equal(lines[1], o[1]) {
				t.Fatalf("tenants %q and %q seal under the same keys", id, other)
			}
		}
		sealed[id] = lines
	}
}
