package server

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/wire"
)

func testAuthority(t *testing.T) *proof.Authority {
	t.Helper()
	a, err := proof.NewAuthority(proof.DeriveAuthoritySeed(testKey))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestProofOpEndToEnd drives the verifiable-read path over the wire: a
// thin client (no engine access) fetches a proof and accepts the read
// only because the walk recomputes to the attested, log-published root —
// then a server-side tamper makes the same verification fail typed.
func TestProofOpEndToEnd(t *testing.T) {
	const memSize = 1 << 14
	sh := testShards(t, 2, memSize)
	addr, shutdown := startServer(t, sh, Config{Authority: testAuthority(t), AllowTamper: true})
	defer shutdown()
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ri, err := c.Root()
	if err != nil {
		t.Fatal(err)
	}
	if err := proof.VerifyHead(ri.Pub, ri.Head); err != nil {
		t.Fatal(err)
	}
	if ri.Head.Size != 1 {
		t.Fatalf("startup log size = %d, want 1 (root published at New)", ri.Head.Size)
	}
	if ri.Latest == nil || ri.Latest.Epoch != 1 {
		t.Fatalf("Latest = %+v, want epoch 1", ri.Latest)
	}
	if err := proof.VerifyEntry(ri.Pub, *ri.Latest, proof.Digest{}); err != nil {
		t.Fatal(err)
	}

	cfg := testShardConfig(t, 2, memSize)
	params := proof.Params{MemoryBytes: memSize, Shards: 2, Enc: cfg.Mem.Enc, Tree: cfg.Mem.Tree}
	const victim = 5 * secmem.LineBytes
	want := oracle.Fill(victim, 1)
	if err := c.Write(victim, want); err != nil {
		t.Fatal(err)
	}

	p, err := c.Proof(victim)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Verify(params, testKey, ri.Pub)
	if err != nil {
		t.Fatalf("client-side verify: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("verified read recovered wrong plaintext")
	}

	// Flip one stored ciphertext bit server-side: the next proof still
	// arrives (the server's own read path is not consulted), but the thin
	// client rejects it without trusting any server-side check.
	if err := c.Tamper(victim); err != nil {
		t.Fatal(err)
	}
	p, err = c.Proof(victim)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Verify(params, testKey, ri.Pub)
	var me *proof.MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("tampered store verified client-side as %v, want *proof.MismatchError", err)
	}
	if me.Level != -1 {
		t.Fatalf("tamper detected at level %d, want -1 (data line)", me.Level)
	}
}

// TestProofOpRequiresAuthority: without a signing authority the proof
// surface answers typed errors, and the connection stays usable.
func TestProofOpRequiresAuthority(t *testing.T) {
	sh := testShards(t, 2, 1<<13)
	addr, shutdown := startServer(t, sh, Config{})
	defer shutdown()
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var re *wire.RemoteError
	if _, err := c.Proof(0); !errors.As(err, &re) {
		t.Fatalf("Proof without authority returned %v, want *wire.RemoteError", err)
	}
	if _, err := c.Root(); !errors.As(err, &re) {
		t.Fatalf("Root without authority returned %v, want *wire.RemoteError", err)
	}
	if _, err := c.RootRange(0, 1); !errors.As(err, &re) {
		t.Fatalf("RootRange without authority returned %v, want *wire.RemoteError", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after proof errors: %v", err)
	}
}

// TestRootRangeRejectsUnknownEpochs: asking past the log's end (or with an
// inverted range) is a typed remote error, not a crash or empty success.
func TestRootRangeRejectsUnknownEpochs(t *testing.T) {
	sh := testShards(t, 2, 1<<13)
	addr, shutdown := startServer(t, sh, Config{Authority: testAuthority(t)})
	defer shutdown()
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var re *wire.RemoteError
	if _, err := c.RootRange(0, 99); !errors.As(err, &re) {
		t.Fatalf("future epoch range returned %v, want *wire.RemoteError", err)
	}
	if !strings.Contains(re.Msg, "outside log") {
		t.Fatalf("error %q does not explain the range is outside the log", re.Msg)
	}
	if _, err := c.RootRange(5, 2); !errors.As(err, &re) {
		t.Fatalf("inverted range returned %v, want *wire.RemoteError", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after range errors: %v", err)
	}
}

// TestCheckpointPublishesEpoch: every durable checkpoint appends an epoch
// entry, and the log stays provably consistent across growth — the full
// auditor protocol run in-process.
func TestCheckpointPublishesEpoch(t *testing.T) {
	dm, _ := openDurable(t, t.TempDir(), 2, 1<<13, durable.Config{})
	defer dm.Close()
	addr, shutdown := startServer(t, dm, Config{Authority: testAuthority(t)})
	defer shutdown()
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ri, err := c.Root()
	if err != nil {
		t.Fatal(err)
	}
	oldHead := ri.Head
	if oldHead.Size != 1 {
		t.Fatalf("startup log size = %d, want 1", oldHead.Size)
	}

	for i := uint64(0); i < 3; i++ {
		if err := c.Write(i*secmem.LineBytes, oracle.Fill(i, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	ri, err = c.Root()
	if err != nil {
		t.Fatal(err)
	}
	newHead := ri.Head
	if newHead.Size != 4 {
		t.Fatalf("log size after 3 checkpoints = %d, want 4", newHead.Size)
	}
	if err := proof.VerifyHead(ri.Pub, newHead); err != nil {
		t.Fatal(err)
	}

	// The auditor's incremental protocol: fetch the gap, verify each
	// entry's signature and chain link, then the consistency proof tying
	// the pinned head to the new one.
	rr, err := c.RootRange(oldHead.Size, newHead.Size)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.RootRange(0, oldHead.Size)
	if err != nil {
		t.Fatal(err)
	}
	prev := proof.EntryHash(first.Entries[len(first.Entries)-1])
	for _, e := range rr.Entries {
		if err := proof.VerifyEntry(ri.Pub, e, prev); err != nil {
			t.Fatal(err)
		}
		prev = proof.EntryHash(e)
	}
	if err := proof.VerifyConsistency(oldHead.Size, oldHead.Hash, newHead.Size, newHead.Hash, rr.Proof); err != nil {
		t.Fatal(err)
	}

	// A proof fetched now carries the current epoch's attestation.
	p, err := c.Proof(0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Epoch != newHead.Size {
		t.Fatalf("proof attested at epoch %d, want %d", p.Epoch, newHead.Size)
	}
}
