package secmem

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/securemem/morphtree/internal/counters"
)

func morphConfig(memBytes uint64) Config {
	return Config{
		MemoryBytes: memBytes,
		Enc:         counters.MorphSpec(true),
		Tree:        []counters.Spec{counters.MorphSpec(true)},
		Key:         testKey,
	}
}

func wantIntegrity(t *testing.T, err error) *IntegrityError {
	t.Helper()
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *IntegrityError", err)
	}
	return ie
}

func TestNewDomainValidation(t *testing.T) {
	m := mustNew(t, morphConfig(1<<14))
	if _, err := m.NewDomain(""); err == nil {
		t.Fatal("empty domain id accepted")
	}
	d, err := m.NewDomain("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "alpha" {
		t.Fatalf("Name() = %q", d.Name())
	}
}

// TestDomainIsolation is the key-separation property end to end in the
// engine: a line written under tenant A's domain reads back only under A.
// Under B's domain — or the engine's default domain — the stored MAC was
// computed with a different key, so the read fails closed with a typed
// IntegrityError, exactly as tampering would.
func TestDomainIsolation(t *testing.T) {
	m := mustNew(t, morphConfig(1<<14))
	a, err := m.NewDomain("alpha")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.NewDomain("beta")
	if err != nil {
		t.Fatal(err)
	}
	line := []byte(nil)
	line = append(line, bytes.Repeat([]byte{0xA1}, LineBytes)...)
	const addr = 3 * LineBytes
	if err := m.WriteDomain(a, addr, line); err != nil {
		t.Fatal(err)
	}

	got, err := m.ReadDomain(nil, a, addr)
	if err != nil {
		t.Fatalf("owner read: %v", err)
	}
	if !bytes.Equal(got, line) {
		t.Fatal("owner read returned wrong contents")
	}
	if _, err := m.ReadDomain(nil, b, addr); err == nil {
		t.Fatal("cross-tenant read succeeded")
	} else {
		wantIntegrity(t, err)
	}
	if _, err := m.Read(addr); err == nil {
		t.Fatal("default-domain read of tenant line succeeded")
	} else {
		wantIntegrity(t, err)
	}

	// Untouched lines still belong to the default domain.
	if _, err := m.Read(addr + LineBytes); err != nil {
		t.Fatalf("default read of untouched line: %v", err)
	}
	// Same line under B for good measure: B's own write claims it.
	if err := m.WriteDomain(b, addr, line); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadDomain(nil, a, addr); err == nil {
		t.Fatal("A read B's line after reclaim")
	}
	if _, err := m.ReadDomain(nil, b, addr); err != nil {
		t.Fatalf("B read own line: %v", err)
	}
}

// TestDomainDefaultWriteReclaims verifies a default-domain write clears a
// line's tenant tag: ownership follows the last writer.
func TestDomainDefaultWriteReclaims(t *testing.T) {
	m := mustNew(t, morphConfig(1<<14))
	a, err := m.NewDomain("alpha")
	if err != nil {
		t.Fatal(err)
	}
	line := bytes.Repeat([]byte{0x5C}, LineBytes)
	const addr = 0
	if err := m.WriteDomain(a, addr, line); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(addr, line); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(addr); err != nil {
		t.Fatalf("default read after reclaim: %v", err)
	}
	if _, err := m.ReadDomain(nil, a, addr); err == nil {
		t.Fatal("domain read succeeded after default-domain reclaim")
	}
}

// TestDomainOverflowReencrypt drives a mixed default/tenant write pattern
// hard enough to overflow counters, forcing block re-encryption sweeps
// over lines owned by different domains. Every line must remain readable
// only under its owning domain afterwards — an overflow in one tenant's
// block must never reseal a neighbor's line under the wrong key — and the
// whole-tree audit must still pass.
func TestDomainOverflowReencrypt(t *testing.T) {
	m := mustNew(t, morphConfig(1<<14))
	a, err := m.NewDomain("alpha")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.NewDomain("beta")
	if err != nil {
		t.Fatal(err)
	}
	owners := func(i uint64) *Domain {
		switch i % 3 {
		case 0:
			return a
		case 1:
			return b
		default:
			return nil // default domain, interleaved in the same blocks
		}
	}
	lineFor := func(i, seq uint64) []byte {
		l := bytes.Repeat([]byte{byte(i)}, LineBytes)
		l[0] = byte(seq)
		return l
	}
	const lines = 16
	var seq uint64
	for m.Stats().Reencryptions == 0 {
		seq++
		if seq > 100000 {
			t.Fatal("no counter overflow after 100000 rounds")
		}
		for i := uint64(0); i < lines; i++ {
			addr := i * LineBytes
			var err error
			if dom := owners(i); dom != nil {
				err = m.WriteDomain(dom, addr, lineFor(i, seq))
			} else {
				err = m.Write(addr, lineFor(i, seq))
			}
			if err != nil {
				t.Fatalf("round %d line %d: %v", seq, i, err)
			}
		}
	}

	for i := uint64(0); i < lines; i++ {
		addr := i * LineBytes
		dom := owners(i)
		var got []byte
		var err error
		if dom != nil {
			got, err = m.ReadDomain(nil, dom, addr)
		} else {
			got, err = m.Read(addr)
		}
		if err != nil {
			t.Fatalf("post-overflow read line %d (domain %v): %v", i, dom, err)
		}
		if !bytes.Equal(got, lineFor(i, seq)) {
			t.Fatalf("post-overflow line %d has wrong contents", i)
		}
		// And cross-domain still fails.
		if dom == a {
			if _, err := m.ReadDomain(nil, b, addr); err == nil {
				t.Fatalf("line %d readable cross-tenant after re-encryption", i)
			}
		}
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll after domain overflow: %v", err)
	}
	st := m.Stats()
	if st.Tenants["alpha"].Writes == 0 || st.Tenants["beta"].Reads == 0 {
		t.Fatalf("per-tenant stats not accounted: %+v", st.Tenants)
	}
}

func TestStatsTenantsCloneMerge(t *testing.T) {
	s := Stats{Tenants: map[string]TenantOps{"a": {Reads: 2, Writes: 3}}}
	c := s.Clone()
	c.Tenants["a"] = TenantOps{Reads: 99, Writes: 99}
	if s.Tenants["a"].Reads != 2 {
		t.Fatal("Clone aliased the Tenants map")
	}
	var agg Stats
	agg.Merge(s)
	agg.Merge(Stats{Tenants: map[string]TenantOps{"a": {Reads: 1}, "b": {Writes: 7}}})
	if agg.Tenants["a"].Reads != 3 || agg.Tenants["a"].Writes != 3 || agg.Tenants["b"].Writes != 7 {
		t.Fatalf("Merge result = %+v", agg.Tenants)
	}
	// Merging an empty Stats must not materialize a map.
	var empty Stats
	empty.Merge(Stats{})
	if empty.Tenants != nil {
		t.Fatal("Merge of empty stats allocated a Tenants map")
	}
}

// TestStatsCloneMergeConcurrent exercises snapshotting under live
// multi-domain traffic with the race detector: worker goroutines hammer
// per-tenant reads and writes while an aggregator repeatedly does what the
// shard layer does — Stats() (Clone under the engine lock) then Merge into
// a local aggregate. The per-tenant map must never be shared with the
// engine's live state.
func TestStatsCloneMergeConcurrent(t *testing.T) {
	m := mustNew(t, morphConfig(1<<14))
	doms := make([]*Domain, 4)
	for i := range doms {
		d, err := m.NewDomain(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		doms[i] = d
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dom := doms[w]
			addr := uint64(w) * LineBytes
			line := bytes.Repeat([]byte{byte(w)}, LineBytes)
			for i := 0; i < 300; i++ {
				if err := m.WriteDomain(dom, addr, line); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if _, err := m.ReadDomain(nil, dom, addr); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var agg Stats
	for snapshotting := true; snapshotting; {
		select {
		case <-done:
			snapshotting = false
		default:
		}
		agg.Merge(m.Stats())
	}
	final := m.Stats()
	for _, d := range doms {
		if final.Tenants[d.Name()].Reads == 0 || final.Tenants[d.Name()].Writes == 0 {
			t.Fatalf("tenant %s has zero accounted traffic: %+v", d.Name(), final.Tenants)
		}
	}
}
