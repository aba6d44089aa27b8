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

// block is the lines one MorphCtr-128 encryption-counter line covers: the
// unit a tenant range is made of.
const block = 128

// withTenants is a MorphCtr-128 engine of memBytes with table installed.
func withTenants(t *testing.T, memBytes uint64, table ...TenantRange) *Memory {
	t.Helper()
	m := mustNew(t, morphConfig(memBytes))
	if err := m.SetTenants(table); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSetTenantsValidation(t *testing.T) {
	m := mustNew(t, morphConfig(1<<15)) // 512 lines, four counter blocks
	for name, table := range map[string][]TenantRange{
		"empty id":     {{ID: "", Lo: 0, Hi: block}},
		"empty range":  {{ID: "a", Lo: block, Hi: block}},
		"unaligned lo": {{ID: "a", Lo: 1, Hi: block}},
		"unaligned hi": {{ID: "a", Lo: 0, Hi: block + 64}},
		"overlapping":  {{ID: "a", Lo: 0, Hi: 2 * block}, {ID: "b", Lo: block, Hi: 3 * block}},
		"unsorted":     {{ID: "a", Lo: 2 * block, Hi: 3 * block}, {ID: "b", Lo: 0, Hi: block}},
		"past the end": {{ID: "a", Lo: 3 * block, Hi: 5 * block}},
	} {
		if err := m.SetTenants(table); err == nil {
			t.Errorf("%s: table %v accepted", name, table)
		}
	}
	if err := m.SetTenants([]TenantRange{{ID: "a", Lo: 0, Hi: block}, {ID: "b", Lo: 3 * block, Hi: 4 * block}}); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); len(st.Tenants) != 2 || st.Tenants["a"] != (TenantOps{}) || st.Tenants["b"] != (TenantOps{}) {
		t.Fatalf("Stats.Tenants after install = %v, want a zero row for a and for b", st.Tenants)
	}
}

// TestDomainIsolation is key separation in the engine: a line's keys follow
// its range. Three engines under one key run the same writes, so every
// counter agrees, and differ only in who owns lines [0, 128): alpha, beta, or
// nobody. A line there is sealed three different ways, and moved — ciphertext
// and MAC — into either other engine, it fails closed with a typed
// IntegrityError, exactly as tampering would. A line outside the range is
// sealed the same way in all three. Within each engine a plain Write and Read
// of the line round-trip.
func TestDomainIsolation(t *testing.T) {
	engines := map[string]*Memory{
		"alpha":  withTenants(t, 1<<15, TenantRange{ID: "alpha", Lo: 0, Hi: block}),
		"beta":   withTenants(t, 1<<15, TenantRange{ID: "beta", Lo: 0, Hi: block}),
		"engine": mustNew(t, morphConfig(1<<15)),
	}
	const in, out = 3, 2*block + 3
	for name, m := range engines {
		for _, d := range []uint64{in, out} {
			if err := m.Write(d*LineBytes, line(0xA1)); err != nil {
				t.Fatal(err)
			}
			if got, err := m.Read(d * LineBytes); err != nil || !bytes.Equal(got, line(0xA1)) {
				t.Fatalf("%s: line %d reads back %x, %v", name, d, got, err)
			}
		}
	}
	for owner, m := range engines {
		ct, _ := m.Store().DataLine(in)
		tag, _ := m.Store().DataMAC(in)
		for other, o := range engines {
			oct, _ := o.Store().DataLine(in)
			if other == owner {
				continue
			}
			if bytes.Equal(ct, oct) {
				t.Errorf("line %d sealed alike under %s and %s", in, owner, other)
			}
			spliced := mustNew(t, morphConfig(1<<15))
			if other != "engine" {
				if err := spliced.SetTenants([]TenantRange{{ID: other, Lo: 0, Hi: block}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := spliced.Write(in*LineBytes, line(0xA1)); err != nil {
				t.Fatal(err)
			}
			spliced.Store().SetDataLine(in, ct)
			spliced.Store().SetDataMAC(in, tag)
			if _, err := spliced.Read(in * LineBytes); err == nil {
				t.Errorf("%s's line verified under %s's keys", owner, other)
			} else {
				wantIntegrity(t, err)
			}
		}
	}
	a, _ := engines["alpha"].Store().DataLine(out)
	e, _ := engines["engine"].Store().DataLine(out)
	if !bytes.Equal(a, e) {
		t.Errorf("line %d, outside every range, is sealed differently with a tenant table", out)
	}
}

// A tenant's never-written line reads as zeros after an overflow in its
// block has materialized it: the overflow seals it under the keys of the
// range it is in, not the engine's own.
func TestTenantUntouchedLineReadsZerosAfterOverflow(t *testing.T) {
	m := withTenants(t, 1<<15, TenantRange{ID: "alpha", Lo: 0, Hi: block})
	for m.Stats().Reencryptions == 0 {
		if err := m.Write(0, line(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := m.Store().DataLine(1); !ok {
		t.Fatal("the overflow did not materialize line 1")
	}
	got, err := m.Read(LineBytes)
	if err != nil {
		t.Fatalf("alpha's untouched line 1 after an overflow: %v", err)
	}
	if !bytes.Equal(got, make([]byte, LineBytes)) {
		t.Fatalf("alpha's untouched line 1 reads %x, want zeros", got)
	}
}

// An overflow stays inside the tenant that caused it. The aggressor hammers
// one line of its range until its counter block has overflowed several
// times; the victim's range begins at the next block, so every victim line's
// stored ciphertext and MAC are what they were, and read back as written.
func TestOverflowStaysInsideItsTenant(t *testing.T) {
	m := withTenants(t, 1<<15,
		TenantRange{ID: "aggressor", Lo: 0, Hi: block},
		TenantRange{ID: "victim", Lo: block, Hi: 2 * block})
	const victimLines = block / 2 // half written, half never
	for d := uint64(block); d < block+victimLines; d++ {
		if err := m.Write(d*LineBytes, line(byte(d))); err != nil {
			t.Fatal(err)
		}
	}
	type sealed struct {
		ct  []byte
		tag uint64
	}
	snapshot := func() map[uint64]sealed {
		st, out := m.Store(), make(map[uint64]sealed)
		for d := uint64(block); d < 2*block; d++ {
			ct, _ := st.DataLine(d)
			tag, _ := st.DataMAC(d)
			out[d] = sealed{ct, tag}
		}
		return out
	}
	before, stats := snapshot(), m.Stats()
	for m.Stats().Overflows[0] < stats.Overflows[0]+4 {
		if err := m.Write(LineBytes, line(0xEE)); err != nil {
			t.Fatal(err)
		}
	}
	after := snapshot()
	for d := uint64(block); d < 2*block; d++ {
		if !bytes.Equal(before[d].ct, after[d].ct) || before[d].tag != after[d].tag {
			t.Fatalf("victim line %d changed in store while the aggressor overflowed its own block", d)
		}
		want := make([]byte, LineBytes)
		if d < block+victimLines {
			want = line(byte(d))
		}
		if got, err := m.Read(d * LineBytes); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("victim line %d reads %x, %v", d, got, err)
		}
	}
	if got := m.Stats().Reencryptions - stats.Reencryptions; got == 0 {
		t.Fatal("the aggressor's overflows re-encrypted nothing")
	}
}

// TestDomainOverflowReencrypt drives writes into alpha's range, beta's and
// the engine's own hard enough to overflow counters in each, forcing block
// re-encryption sweeps in every domain. Every line must read back afterwards
// — each sweep resealed it under its own domain's keys — and the whole-tree
// audit must pass.
func TestDomainOverflowReencrypt(t *testing.T) {
	m := withTenants(t, 1<<15,
		TenantRange{ID: "alpha", Lo: 0, Hi: block},
		TenantRange{ID: "beta", Lo: block, Hi: 2 * block})
	lineFor := func(d, seq uint64) []byte {
		l := bytes.Repeat([]byte{byte(d)}, LineBytes)
		l[0] = byte(seq)
		return l
	}
	const perBlock = 16
	var written []uint64 // in alpha's block, beta's and the engine's
	for b := uint64(0); b < 3; b++ {
		for i := uint64(0); i < perBlock; i++ {
			written = append(written, b*block+i)
		}
	}
	var seq uint64
	for m.Stats().Overflows[0] < 3 {
		seq++
		if seq > 100000 {
			t.Fatal("no counter overflow after 100000 rounds")
		}
		for _, d := range written {
			if err := m.Write(d*LineBytes, lineFor(d, seq)); err != nil {
				t.Fatalf("round %d line %d: %v", seq, d, err)
			}
		}
	}
	for _, d := range written {
		got, err := m.Read(d * LineBytes)
		if err != nil {
			t.Fatalf("post-overflow read line %d: %v", d, err)
		}
		if !bytes.Equal(got, lineFor(d, seq)) {
			t.Fatalf("post-overflow line %d has wrong contents", d)
		}
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll after domain overflow: %v", err)
	}
	st := m.Stats()
	if st.Tenants["alpha"].Writes != perBlock*seq || st.Tenants["beta"].Reads == 0 {
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
// multi-tenant traffic with the race detector: worker goroutines hammer
// reads and writes in their own tenant's range while an aggregator
// repeatedly does what the shard layer does — Stats() under the engine lock,
// then Merge into a local aggregate. The per-tenant map must never be shared
// with the engine's live state.
func TestStatsCloneMergeConcurrent(t *testing.T) {
	table := make([]TenantRange, 4)
	for i := range table {
		table[i] = TenantRange{ID: fmt.Sprintf("t%d", i), Lo: uint64(i) * block, Hi: uint64(i+1) * block}
	}
	m := withTenants(t, 1<<16, table...)
	var wg sync.WaitGroup
	for w, r := range table {
		wg.Add(1)
		go func() {
			defer wg.Done()
			addr := r.Lo * LineBytes
			line := bytes.Repeat([]byte{byte(w)}, LineBytes)
			for i := 0; i < 300; i++ {
				if err := m.Write(addr, line); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if _, err := m.Read(addr); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}()
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
	for _, r := range table {
		if final.Tenants[r.ID] != (TenantOps{Reads: 300, Writes: 300}) {
			t.Fatalf("tenant %s's traffic is not 300 reads and 300 writes: %+v", r.ID, final.Tenants)
		}
	}
}
