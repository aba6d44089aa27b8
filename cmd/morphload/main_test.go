package main

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/server"
	"github.com/securemem/morphtree/internal/shard"
)

func testShardConfig(t *testing.T) shard.Config {
	t.Helper()
	enc, tree, err := shard.Organization("morph128")
	if err != nil {
		t.Fatal(err)
	}
	return shard.Config{Shards: 2, Mem: secmem.Config{
		MemoryBytes: 1 << 16, Enc: enc, Tree: tree, Key: []byte("0123456789abcdef"),
	}}
}

// serveDir opens (or recovers) a durable store in dir and serves it on a
// loopback port. stop is a graceful shutdown: drain, flush, close.
func serveDir(t *testing.T, dir string) (addr string, stop func()) {
	t.Helper()
	m, _, err := durable.Open(testShardConfig(t), durable.Config{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- server.New(m, server.Config{}).Serve(ctx, ln) }()
	return ln.Addr().String(), func() {
		cancel()
		<-done
		if err := m.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}
}

// TestLoadAgainstARestartedStore: morphload pointed twice at one data
// directory, with a graceful restart between. The second run finds the first
// run's lines where a fresh store has zeros; they are the lines' initial
// values, not corruption. (The model this replaced assumed zeros and counted
// every surviving line as a mismatch.)
func TestLoadAgainstARestartedStore(t *testing.T) {
	dir := t.TempDir()
	for pass := 1; pass <= 2; pass++ {
		addr, stop := serveDir(t, dir)
		o, err := parseFlags([]string{"-addr", addr, "-clients", "2", "-duration", "300ms", "-span", "65536"})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err = run(o, &out)
		stop()
		if err != nil {
			t.Fatalf("pass %d: %v\n%s", pass, err, out.String())
		}
		if !strings.Contains(out.String(), " 0 mismatches, 0 integrity errors") || !strings.Contains(out.String(), "verify_ok=true") {
			t.Fatalf("pass %d: %s", pass, out.String())
		}
	}
	m, info, err := durable.Open(testShardConfig(t), durable.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if info.Fresh {
		t.Fatal("the store the two runs wrote did not survive")
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll after two loads and two restarts: %v", err)
	}
}

func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-clients", "0"},
		{"-clients", "4", "-span", "128"},
		{"-audit", "-audit-every", "0"},
		{"-out", "load.json"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) = nil, want an error", args)
		}
	}
}
