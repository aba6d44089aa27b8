package wire

import (
	"errors"
	"net"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/container"
	"github.com/securemem/morphtree/internal/proof"
)

// proofBody builds a well-formed proof wire body for hostile-server tests.
func proofBody(t *testing.T) []byte {
	t.Helper()
	line := make([]byte, proof.LineBytes)
	p := &proof.Proof{
		Addr:        64,
		Shards:      1,
		Shard:       0,
		Epoch:       1,
		Line:        line,
		LineMAC:     1,
		Chain:       [][]byte{append([]byte(nil), line...)},
		Root:        append([]byte(nil), line...),
		ShardRoots:  []proof.Digest{{1}},
		Attestation: make([]byte, 64),
	}
	body, err := p.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// fakeProofServer answers each request with a caller-scripted status+body.
func fakeProofServer(t *testing.T, srv net.Conn, bodies [][]byte) {
	t.Helper()
	go func() {
		for _, body := range bodies {
			if _, _, err := ReadFrame(srv); err != nil {
				return
			}
			_ = WriteFrame(srv, StatusOK, body)
		}
		// Keep answering pings so usability checks pass.
		for {
			if _, _, err := ReadFrame(srv); err != nil {
				return
			}
			_ = WriteFrame(srv, StatusOK, nil)
		}
	}()
}

// TestProofTruncatedMidBody: a server that truncates a proof payload —
// cut inside the chain, inside the digest vector, or to nothing — yields
// a typed decode error, and the connection is NOT poisoned: the frame
// itself arrived intact, only its contents were bad.
func TestProofTruncatedMidBody(t *testing.T) {
	body := proofBody(t)
	cuts := [][]byte{
		body[:0],           // empty body
		body[:8],           // ends inside the fixed header
		body[:30],          // ends inside the data line
		body[:len(body)/2], // ends inside the chain
		body[:len(body)-1], // one byte short of complete
	}
	cli, srv := net.Pipe()
	defer srv.Close()
	c := NewClient(cli, time.Second)
	defer c.Close()
	fakeProofServer(t, srv, cuts)

	for i := range cuts {
		_, err := c.Proof(64)
		if err == nil {
			t.Fatalf("cut %d: truncated proof decoded successfully", i)
		}
		var te *proof.TruncatedError
		var be *proof.BoundsError
		if !errors.As(err, &te) && !errors.As(err, &be) {
			t.Fatalf("cut %d: got %v, want a typed proof decode error", i, err)
		}
	}
	if c.Poisoned() {
		t.Fatal("payload-level damage must not poison the connection")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after truncated proofs: %v", err)
	}
}

// TestProofOversizedPathLength: a hostile server claiming a path deeper
// than any real tree is rejected by the cap before allocation.
func TestProofOversizedPathLength(t *testing.T) {
	body := proofBody(t)
	// chain length u16 sits after the container header(12) + addr(8) +
	// shards(4) + shard(4) + epoch(8) + line flag(1) + line(64) + mac(8).
	const chainOff = container.HeaderBytes + 8 + 4 + 4 + 8 + 1 + proof.LineBytes + 8
	forged := append([]byte(nil), body...)
	forged[chainOff] = 0xFF
	forged[chainOff+1] = 0xFF

	cli, srv := net.Pipe()
	defer srv.Close()
	c := NewClient(cli, time.Second)
	defer c.Close()
	fakeProofServer(t, srv, [][]byte{forged})

	_, err := c.Proof(64)
	var be *proof.BoundsError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *proof.BoundsError", err)
	}
	if be.Max != proof.MaxChainLines {
		t.Fatalf("bound reported %d, want MaxChainLines=%d", be.Max, proof.MaxChainLines)
	}
	if c.Poisoned() {
		t.Fatal("oversized path must not poison the connection")
	}
}

// TestRootInfoTruncated: the transparency-log position survives the same
// hostile treatment.
func TestRootInfoTruncated(t *testing.T) {
	info := &proof.RootInfo{
		Pub:  make([]byte, 32),
		Head: proof.SignedHead{Size: 1, Sig: make([]byte, 64)},
	}
	body, err := info.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	cli, srv := net.Pipe()
	defer srv.Close()
	c := NewClient(cli, time.Second)
	defer c.Close()
	fakeProofServer(t, srv, [][]byte{body[:len(body)-3]})

	if _, err := c.Root(); err == nil {
		t.Fatal("truncated root info decoded successfully")
	}
	if c.Poisoned() {
		t.Fatal("truncated root info must not poison the connection")
	}
}
