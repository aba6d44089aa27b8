package proof

import (
	"crypto/ed25519"
	"strings"
	"testing"
)

func testLeaves(n int) []Digest {
	leaves := make([]Digest, n)
	for i := range leaves {
		leaves[i] = EntryHash(Entry{Epoch: uint64(i) + 1, Root: Digest{byte(i), 0xA5}})
	}
	return leaves
}

// TestConsistencyBruteForce proves the generator and verifier agree for
// every (m, n) pair up to 32 entries — the whole state space the auditor
// will ever exercise between two cycles, boundaries included (m == n,
// powers of two, m == 1).
func TestConsistencyBruteForce(t *testing.T) {
	leaves := testLeaves(32)
	for n := 1; n <= len(leaves); n++ {
		newHash := treeHash(leaves[:n])
		for m := 0; m <= n; m++ {
			oldHash := treeHash(leaves[:m])
			path := consistencyProof(m, leaves[:n])
			if err := VerifyConsistency(uint64(m), oldHash, uint64(n), newHash, path); err != nil {
				t.Fatalf("consistency %d -> %d rejected: %v", m, n, err)
			}
		}
	}
}

// TestConsistencyRejectsForks feeds the verifier honest proofs against
// forked histories: same sizes, different content.
func TestConsistencyRejectsForks(t *testing.T) {
	leaves := testLeaves(16)
	forked := testLeaves(16)
	for i := range forked {
		forked[i][0] ^= 0xFF
	}
	for n := 2; n <= len(leaves); n++ {
		for m := 1; m < n; m++ {
			path := consistencyProof(m, leaves[:n])
			// The old head the auditor pinned came from the forked history.
			if err := VerifyConsistency(uint64(m), treeHash(forked[:m]), uint64(n), treeHash(leaves[:n]), path); err == nil {
				t.Fatalf("forked old head %d -> %d accepted", m, n)
			}
			// The server rewrote history after the pin.
			if err := VerifyConsistency(uint64(m), treeHash(leaves[:m]), uint64(n), treeHash(forked[:n]), path); err == nil {
				t.Fatalf("rewritten new head %d -> %d accepted", m, n)
			}
		}
	}
	if err := VerifyConsistency(8, treeHash(leaves[:8]), 4, treeHash(leaves[:4]), nil); err == nil {
		t.Fatal("shrinking log accepted")
	} else if !strings.Contains(err.Error(), "shrank") {
		t.Fatalf("shrinking log error = %v, want mention of shrinking", err)
	}
	if err := VerifyConsistency(4, treeHash(leaves[:4]), 4, treeHash(forked[:4]), nil); err == nil {
		t.Fatal("equal-size fork (equivocation) accepted")
	}
}

func TestAuthorityPublishChain(t *testing.T) {
	a, err := NewAuthority(nil)
	if err != nil {
		t.Fatal(err)
	}
	pub := a.Public()
	roots := []Digest{{1}, {2}, {3}, {4}, {5}}
	for _, r := range roots {
		e := a.Publish(r)
		if err := VerifyHead(pub, a.Head()); err != nil {
			t.Fatalf("head after epoch %d: %v", e.Epoch, err)
		}
	}
	if got := a.Size(); got != uint64(len(roots)) {
		t.Fatalf("Size = %d, want %d", got, len(roots))
	}
	if got := a.Unpublished(); got != 0 {
		t.Fatalf("Unpublished = %d, want 0 (Publish signs a covering head)", got)
	}

	entries, err := a.Entries(0, a.Size())
	if err != nil {
		t.Fatal(err)
	}
	var prev Digest
	for i, e := range entries {
		if e.Epoch != uint64(i)+1 {
			t.Fatalf("entry %d has epoch %d", i, e.Epoch)
		}
		if e.Root != roots[i] {
			t.Fatalf("entry %d root mismatch", i)
		}
		if err := VerifyEntry(pub, e, prev); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		prev = EntryHash(e)
	}

	// The head the server signs matches what an auditor recomputes from
	// the entries it fetched.
	leaves := make([]Digest, len(entries))
	for i, e := range entries {
		leaves[i] = EntryHash(e)
	}
	if head := a.Head(); TreeHash(leaves) != head.Hash {
		t.Fatal("recomputed tree hash disagrees with the signed head")
	}

	latest, ok := a.Latest()
	if !ok || latest.Epoch != uint64(len(roots)) {
		t.Fatalf("Latest = (%v, %v)", latest.Epoch, ok)
	}
	if _, err := a.Entries(3, 99); err == nil {
		t.Fatal("out-of-range Entries accepted")
	}
	if _, err := a.ConsistencyProof(4, 99); err == nil {
		t.Fatal("out-of-range ConsistencyProof accepted")
	}
}

// TestAuthorityTamperEntry proves the adversary interface produces exactly
// the evidence auditors check for: the tampered entry's signature no
// longer verifies, and the recomputed head equivocates against the
// pre-tamper head at the same size.
func TestAuthorityTamperEntry(t *testing.T) {
	a, err := NewAuthority(nil)
	if err != nil {
		t.Fatal(err)
	}
	pub := a.Public()
	a.Publish(Digest{1})
	a.Publish(Digest{2})
	before := a.Head()

	if a.TamperEntry(0) || a.TamperEntry(3) {
		t.Fatal("TamperEntry accepted an epoch outside the log")
	}
	if !a.TamperEntry(1) {
		t.Fatal("TamperEntry rejected a live epoch")
	}

	entries, err := a.Entries(0, a.Size())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEntry(pub, entries[0], Digest{}); err == nil {
		t.Fatal("forged entry signature verified")
	}
	after := a.Head()
	if after.Size != before.Size {
		t.Fatalf("tamper changed the log size %d -> %d", before.Size, after.Size)
	}
	if after.Hash == before.Hash {
		t.Fatal("tampered log still serves the old head hash")
	}
	// Both heads are validly signed at the same size with different
	// hashes: the definition of equivocation, and why auditors pin heads.
	if err := VerifyHead(pub, before); err != nil {
		t.Fatal(err)
	}
	if err := VerifyHead(pub, after); err != nil {
		t.Fatal(err)
	}
}

func TestAttestationDomainSeparation(t *testing.T) {
	a, err := NewAuthority(nil)
	if err != nil {
		t.Fatal(err)
	}
	pub := a.Public()
	root := Digest{0xAB}
	e := a.Publish(root)
	epoch, sig := a.Attest(root)
	if epoch != 1 {
		t.Fatalf("Attest epoch = %d, want 1", epoch)
	}
	if err := VerifyAttestation(pub, epoch, root, sig); err != nil {
		t.Fatal(err)
	}
	if err := VerifyAttestation(pub, epoch, Digest{0xAC}, sig); err == nil {
		t.Fatal("attestation verified against a different root")
	}
	// An entry signature must not double as a live attestation (and vice
	// versa), or a replayed log entry could vouch for a stale root.
	if err := VerifyAttestation(pub, e.Epoch, e.Root, e.Sig); err == nil {
		t.Fatal("entry signature accepted as a live attestation")
	}
	if err := VerifyEntry(pub, Entry{Epoch: epoch, Root: root, Sig: sig}, Digest{}); err == nil {
		t.Fatal("live attestation accepted as an entry signature")
	}
}

func TestNewAuthoritySeeds(t *testing.T) {
	seed := DeriveAuthoritySeed([]byte("0123456789abcdef"))
	if len(seed) != ed25519.SeedSize {
		t.Fatalf("derived seed is %d bytes, want %d", len(seed), ed25519.SeedSize)
	}
	a1, err := NewAuthority(seed)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewAuthority(seed)
	if err != nil {
		t.Fatal(err)
	}
	if string(a1.Public()) != string(a2.Public()) {
		t.Fatal("same seed produced different signing identities")
	}
	if a1.KeyDesc() == "" || strings.Contains(a1.KeyDesc(), string(seed)) {
		t.Fatal("KeyDesc must describe the key without leaking the seed")
	}
	if _, err := NewAuthority([]byte("short")); err == nil {
		t.Fatal("undersized seed accepted")
	}
	r1, err := NewAuthority(nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewAuthority(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(r1.Public()) == string(r2.Public()) {
		t.Fatal("two random authorities share an identity")
	}
}

func TestRootDigestBindsShardIndex(t *testing.T) {
	enc := []byte("root-line-encoding-64-bytes.....root-line-encoding-64-bytes.....")
	if RootDigest(0, enc) == RootDigest(1, enc) {
		t.Fatal("shard index not bound: shard roots could be swapped")
	}
	a := []Digest{{1}, {2}}
	b := []Digest{{2}, {1}}
	if CombineRoots(a) == CombineRoots(b) {
		t.Fatal("combined root ignores shard order")
	}
}

// BenchmarkAttest is the signature a served proof carries, on its own: one
// Ed25519 signature of the live root under the authority's lock.
func BenchmarkAttest(b *testing.B) {
	a, err := NewAuthority(make([]byte, 32))
	if err != nil {
		b.Fatal(err)
	}
	var root Digest
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root[0] = byte(i)
		a.Attest(root)
	}
}
