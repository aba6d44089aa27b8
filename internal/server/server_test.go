package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wire"
)

var testKey = []byte("0123456789abcdef")

func testShards(t testing.TB, n int, memBytes uint64) *shard.Sharded {
	t.Helper()
	enc, tree, err := shard.Organization("morph128")
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.New(shard.Config{
		Shards: n,
		Mem: secmem.Config{
			MemoryBytes: memBytes,
			Enc:         enc,
			Tree:        tree,
			Key:         testKey,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// startServer runs a server on a loopback listener and returns its address
// plus a shutdown function that cancels the context and waits for Serve to
// drain.
func startServer(t *testing.T, sh Engine, cfg Config) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- New(sh, cfg).Serve(ctx, ln) }()
	return ln.Addr().String(), func() {
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("Serve returned %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("Serve did not drain after cancel")
		}
	}
}

// TestEndToEnd is the serving layer's core test: a server over 4 shards,
// 8 concurrent clients doing verified read/write traffic, aggregated stats
// over the wire, snapshot/restore, per-shard fail-closed tamper detection,
// and graceful shutdown — all in-process so CI runs it under -race.
func TestEndToEnd(t *testing.T) {
	const (
		shards  = 4
		clients = 8
		ops     = 100
		memSize = 1 << 16
	)
	sh := testShards(t, shards, memSize)
	addr, shutdown := startServer(t, sh, Config{AllowTamper: true})

	// Phase 1: concurrent clients on disjoint address ranges, each
	// verifying its own read-back contents.
	var wg sync.WaitGroup
	lines := uint64(memSize / secmem.LineBytes)
	chunk := lines / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := wire.Dial(addr, 10*time.Second)
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			defer cl.Close()
			base := uint64(c) * chunk * secmem.LineBytes
			for i := 0; i < ops; i++ {
				a := base + uint64(i%int(chunk))*secmem.LineBytes
				want := oracle.Fill(a, uint64(i))
				if err := cl.Write(a, want); err != nil {
					t.Errorf("client %d write: %v", c, err)
					return
				}
				got, err := cl.Read(a)
				if err != nil {
					t.Errorf("client %d read: %v", c, err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("client %d: integrity false positive: content mismatch at %#x", c, a)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		shutdown()
		return
	}

	cl, err := wire.Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Phase 2: wire-level stats must reflect every client's traffic.
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes != clients*ops {
		t.Fatalf("aggregated writes over the wire = %d, want %d", st.Writes, clients*ops)
	}
	if st.Reads < clients*ops {
		t.Fatalf("aggregated reads over the wire = %d, want >= %d", st.Reads, clients*ops)
	}
	if len(st.Increments) == 0 || st.Increments[0] != clients*ops {
		t.Fatalf("aggregated level-0 increments = %v, want %d", st.Increments, clients*ops)
	}

	// Phase 3: server-side verify of every written line.
	if err := cl.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}

	// Phase 4: tamper each shard over the wire; the read must fail closed
	// with a typed IntegrityError while the other shards keep serving.
	for s := 0; s < shards; s++ {
		victim := uint64(s) * secmem.LineBytes // global line s -> shard s
		if err := cl.Tamper(victim); err != nil {
			t.Fatalf("tamper shard %d: %v", s, err)
		}
		_, err := cl.Read(victim)
		var ie *secmem.IntegrityError
		if !errors.As(err, &ie) {
			t.Fatalf("shard %d: tampered read returned %v, want *secmem.IntegrityError", s, err)
		}
		for o := 0; o < shards; o++ {
			if o <= s {
				continue // already tampered (or about to be)
			}
			clean := uint64(o) * secmem.LineBytes
			if _, err := cl.Read(clean); err != nil {
				t.Fatalf("shard %d failed after tampering shard %d: %v", o, s, err)
			}
		}
	}

	// Phase 5: graceful shutdown; new connections must be refused.
	shutdown()
	if _, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestUnknownOpcodeKeepsConnectionUsable sends garbage opcodes between
// valid requests: each gets a typed error response and the framing stays
// intact.
func TestUnknownOpcodeKeepsConnectionUsable(t *testing.T) {
	sh := testShards(t, 2, 1<<14)
	addr, shutdown := startServer(t, sh, Config{})
	defer shutdown()

	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, 0xEE, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	status, body, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if status != wire.StatusError {
		t.Fatalf("unknown opcode: status %#x, want StatusError", status)
	}
	var re *wire.RemoteError
	if !errors.As(wire.DecodeError(status, body), &re) {
		t.Fatalf("unknown opcode error not typed: %q", body)
	}
	// Same connection must still serve a real request.
	payload, err := wire.AppendWrite(nil, 0, oracle.Fill(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.OpWrite, payload); err != nil {
		t.Fatal(err)
	}
	status, _, err = wire.ReadFrame(conn)
	if err != nil || status != wire.StatusOK {
		t.Fatalf("connection unusable after unknown opcode: status=%#x err=%v", status, err)
	}
}

// TestMalformedPayloadsAreTypedErrors covers bad requests that must not
// panic or kill the server: short payloads, unaligned and out-of-range
// addresses, and a disabled tamper op.
func TestMalformedPayloadsAreTypedErrors(t *testing.T) {
	sh := testShards(t, 2, 1<<14)
	addr, shutdown := startServer(t, sh, Config{}) // tamper disabled
	defer shutdown()

	cl, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var re *wire.RemoteError
	if _, err := cl.Read(13); !errors.As(err, &re) {
		t.Fatalf("unaligned read: %v", err)
	}
	if _, err := cl.Read(1 << 40); !errors.As(err, &re) {
		t.Fatalf("out-of-range read: %v", err)
	}
	if err := cl.Tamper(0); !errors.As(err, &re) {
		t.Fatalf("disabled tamper op: %v", err)
	}
	// Raw short payload for OpRead.
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.OpRead, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	status, _, err := wire.ReadFrame(conn)
	if err != nil || status != wire.StatusError {
		t.Fatalf("short read payload: status=%#x err=%v", status, err)
	}
}

// TestConnectionLimit opens more connections than MaxConns allows; the
// excess get a StatusError frame and a close, the admitted ones keep
// working.
func TestConnectionLimit(t *testing.T) {
	sh := testShards(t, 2, 1<<14)
	addr, shutdown := startServer(t, sh, Config{MaxConns: 2})
	defer shutdown()

	c1, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Make sure both are admitted before over-subscribing.
	if err := c1.Write(0, oracle.Fill(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c2.Write(secmem.LineBytes, oracle.Fill(secmem.LineBytes, 1)); err != nil {
		t.Fatal(err)
	}

	over, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	if err := over.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	status, body, err := wire.ReadFrame(over)
	if err != nil {
		t.Fatalf("over-limit connection: expected rejection frame, got %v", err)
	}
	if status != wire.StatusBusy {
		t.Fatalf("over-limit connection: status %#x, want StatusBusy (a shed, not a failure)", status)
	}
	var be *wire.BusyError
	if !errors.As(wire.DecodeError(status, body), &be) {
		t.Fatalf("rejection not typed: %q", body)
	}
	if !wire.IsRetryable(wire.DecodeError(status, body)) {
		t.Fatal("connection-cap shed must classify as retryable")
	}
	// Admitted connections still serve.
	if _, err := c1.Read(0); err != nil {
		t.Fatalf("admitted connection broken by over-limit peer: %v", err)
	}
}
