package shard

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/secmem"
)

var testKey = []byte("0123456789abcdef")

func testConfig(t testing.TB, shards int, memBytes uint64, org string) Config {
	t.Helper()
	enc, tree, err := Organization(org)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Shards: shards,
		Mem: secmem.Config{
			MemoryBytes: memBytes,
			Enc:         enc,
			Tree:        tree,
			Key:         testKey,
		},
	}
}

func mustNew(t testing.TB, cfg Config) *Sharded {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTripAcrossShardCounts(t *testing.T) {
	const memBytes = 1 << 14
	for _, n := range []int{1, 2, 4, 8} {
		s := mustNew(t, testConfig(t, n, memBytes, "morph128"))
		for addr := uint64(0); addr < memBytes; addr += LineBytes {
			if err := s.Write(addr, oracle.Fill(addr, 1)); err != nil {
				t.Fatalf("shards=%d write %#x: %v", n, addr, err)
			}
		}
		for addr := uint64(0); addr < memBytes; addr += LineBytes {
			got, err := s.Read(addr)
			if err != nil {
				t.Fatalf("shards=%d read %#x: %v", n, addr, err)
			}
			if !bytes.Equal(got, oracle.Fill(addr, 1)) {
				t.Fatalf("shards=%d addr %#x: content mismatch", n, addr)
			}
		}
		if err := s.VerifyAll(); err != nil {
			t.Fatalf("shards=%d verify: %v", n, err)
		}
	}
}

func TestInterleavingSpreadsLines(t *testing.T) {
	const n = 4
	s := mustNew(t, testConfig(t, n, 1<<14, "sc64"))
	for addr := uint64(0); addr < 1<<14; addr += LineBytes {
		want := int(addr / LineBytes % n)
		got, _, err := s.Locate(addr)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("addr %#x: shard %d, want %d", addr, got, want)
		}
		if err := s.Write(addr, oracle.Fill(addr, 7)); err != nil {
			t.Fatal(err)
		}
	}
	per := s.ShardStats()
	for i, st := range per {
		if st.Writes != (1<<14)/LineBytes/n {
			t.Fatalf("shard %d served %d writes, want %d", i, st.Writes, (1<<14)/LineBytes/n)
		}
	}
}

func TestBadGeometryAndAddresses(t *testing.T) {
	if _, err := New(testConfig(t, 0, 1<<14, "sc64")); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := New(testConfig(t, 3, 1<<14, "sc64")); err == nil {
		t.Fatal("capacity not divisible by shard stride accepted")
	}
	cfg := testConfig(t, 2, 1<<14, "sc64")
	cfg.Mem.Key = []byte("short")
	if _, err := New(cfg); err == nil {
		t.Fatal("bad master key accepted")
	}
	s := mustNew(t, testConfig(t, 2, 1<<14, "sc64"))
	if err := s.Write(13, oracle.Fill(0, 0)); err == nil {
		t.Fatal("unaligned address accepted")
	}
	if _, err := s.Read(1 << 20); err == nil {
		t.Fatal("out-of-range address accepted")
	}
}

// TestShardKeysDiffer checks that two shards encrypt the same plaintext at
// the same local address to different ciphertexts: the sub-key derivation
// actually separates the shards' crypto domains.
func TestShardKeysDiffer(t *testing.T) {
	s := mustNew(t, testConfig(t, 2, 1<<14, "sc64"))
	line := oracle.Fill(0x40, 3)
	// Global lines 0 and 1 land at local line 0 of shards 0 and 1.
	if err := s.Write(0, line); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(LineBytes, line); err != nil {
		t.Fatal(err)
	}
	ct0, ok0 := s.Shard(0).Store().DataLine(0)
	ct1, ok1 := s.Shard(1).Store().DataLine(0)
	if !ok0 || !ok1 {
		t.Fatal("ciphertexts missing from stores")
	}
	if bytes.Equal(ct0, ct1) {
		t.Fatal("identical ciphertext in two shards: sub-keys are not independent")
	}
}

// TestTamperFailsClosedPerShard corrupts one shard's store and checks that
// only addresses interleaved into that shard fail, while every other shard
// keeps serving verified reads.
func TestTamperFailsClosedPerShard(t *testing.T) {
	const n = 4
	s := mustNew(t, testConfig(t, n, 1<<14, "morph128"))
	for addr := uint64(0); addr < n*8*LineBytes; addr += LineBytes {
		if err := s.Write(addr, oracle.Fill(addr, 2)); err != nil {
			t.Fatal(err)
		}
	}
	victim := uint64(2 * LineBytes) // global line 2 -> shard 2, local line 0
	if !s.FlipDataBit(victim, 5, 3) {
		t.Fatal("tamper target missing")
	}
	_, err := s.Read(victim)
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("tampered read returned %v, want *secmem.IntegrityError", err)
	}
	for addr := uint64(0); addr < n*8*LineBytes; addr += LineBytes {
		if addr == victim {
			continue
		}
		got, err := s.Read(addr)
		if err != nil {
			t.Fatalf("untampered addr %#x failed: %v", addr, err)
		}
		if !bytes.Equal(got, oracle.Fill(addr, 2)) {
			t.Fatalf("untampered addr %#x: content mismatch", addr)
		}
	}
}

func TestAggregateStats(t *testing.T) {
	const n = 4
	s := mustNew(t, testConfig(t, n, 1<<14, "morph128"))
	const writes = 64
	for i := 0; i < writes; i++ {
		if err := s.Write(uint64(i)*LineBytes, oracle.Fill(uint64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < writes; i++ {
		if _, err := s.Read(uint64(i) * LineBytes); err != nil {
			t.Fatal(err)
		}
	}
	agg := s.Stats()
	if agg.Writes != writes || agg.Reads != writes {
		t.Fatalf("aggregate reads/writes = %d/%d, want %d/%d", agg.Reads, agg.Writes, writes, writes)
	}
	var sum uint64
	for _, st := range s.ShardStats() {
		sum += st.Writes
	}
	if sum != agg.Writes {
		t.Fatalf("per-shard writes sum %d != aggregate %d", sum, agg.Writes)
	}
	if len(agg.Increments) == 0 || agg.Increments[0] != writes {
		t.Fatalf("aggregate level-0 increments = %v, want %d", agg.Increments, writes)
	}
}

// TestConcurrentClients drives every shard from parallel goroutines; under
// -race this is the core claim that independent lines proceed in parallel
// safely.
func TestConcurrentClients(t *testing.T) {
	const n = 4
	s := mustNew(t, testConfig(t, n, 1<<16, "morph128"))
	var wg sync.WaitGroup
	const clients = 8
	const opsPerClient = 200
	lines := s.MemoryBytes() / LineBytes
	chunk := lines / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := uint64(c) * chunk * LineBytes
			for i := 0; i < opsPerClient; i++ {
				addr := base + uint64(i%int(chunk))*LineBytes
				if err := s.Write(addr, oracle.Fill(addr, uint64(i))); err != nil {
					t.Errorf("client %d write: %v", c, err)
					return
				}
				got, err := s.Read(addr)
				if err != nil {
					t.Errorf("client %d read: %v", c, err)
					return
				}
				if !bytes.Equal(got, oracle.Fill(addr, uint64(i))) {
					t.Errorf("client %d: content mismatch at %#x", c, addr)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	agg := s.Stats()
	if agg.Writes != clients*opsPerClient {
		t.Fatalf("aggregate writes = %d, want %d", agg.Writes, clients*opsPerClient)
	}
}

func TestOrganizationNames(t *testing.T) {
	for _, name := range []string{"sc64", "sc128", "vault", "morph128", "morph128-zcc"} {
		enc, tree, err := Organization(name)
		if err != nil {
			t.Fatal(err)
		}
		if enc.Arity == 0 || len(tree) == 0 {
			t.Fatalf("%s: empty specs", name)
		}
	}
	if _, _, err := Organization("nope"); err == nil {
		t.Fatal("unknown organization accepted")
	}
}
