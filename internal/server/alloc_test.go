package server

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/invariant"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/racedetect"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/tenant"
	"github.com/securemem/morphtree/internal/wire"
)

// TestServedOpsDoNotAllocate is the serving path's allocation contract as a
// count: once a connection's buffers have grown to a request's size, a READ
// or a WRITE allocates nothing anywhere in the process — not in the frame
// reader, not at the admission gate, not in the engine, not in the journal or
// its interval flusher. The connection is driven with a bare FrameWriter and
// FrameReader so the client side adds nothing of its own, and
// testing.AllocsPerRun counts every goroutine's mallocs, the server's among
// them.
func TestServedOpsDoNotAllocate(t *testing.T) {
	if racedetect.Enabled || invariant.Enabled {
		t.Skip("allocation counts mean nothing under the race detector or with morphdebug assertions compiled in")
	}
	const lines = 64
	cases := []struct {
		name   string
		engine func(t *testing.T) Engine
		cfg    Config
		tenant string // HELLO as this tenant of tenantRegistry's first
	}{
		{name: "sharded", engine: func(t *testing.T) Engine { return testShards(t, 2, 1<<16) }},
		{name: "durable interval", engine: func(t *testing.T) Engine {
			m, _ := openDurable(t, t.TempDir(), 2, 1<<16, durable.Config{Sync: durable.SyncInterval})
			t.Cleanup(func() { m.Close() })
			return m
		}},
		{name: "tenant", tenant: "alpha", cfg: Config{Tenants: tenantRegistry(t)}, engine: func(t *testing.T) Engine {
			sh := testShards(t, 2, 1<<16)
			if err := sh.RegisterTenants(tenantRegistry(t).IDs()); err != nil {
				t.Fatal(err)
			}
			return sh
		}},
		{name: "obs and tracer", cfg: Config{Obs: obs.NewRegistry()},
			engine: func(t *testing.T) Engine { return testShards(t, 2, 1<<16) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, shutdown := startServer(t, tc.engine(t), tc.cfg)
			defer shutdown()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			fw, fr := wire.NewFrameWriter(conn), wire.NewFrameReader(conn)
			var req []byte
			call := func(op byte, payload []byte) []byte {
				if err := fw.WriteFrame(op, payload); err != nil {
					t.Fatal(err)
				}
				status, body, err := fr.ReadFrame()
				if err != nil || status != wire.StatusOK {
					t.Fatalf("%s: status %#x body %q err %v", wire.OpName(op), status, body, err)
				}
				return body
			}
			if tc.tenant != "" {
				if req, err = wire.AppendHello(req[:0], tc.tenant, tenant.HelloToken(tc.tenant+"-secret", tc.tenant)); err != nil {
					t.Fatal(err)
				}
				call(wire.OpHello, req)
			}
			var d uint64
			next := func() uint64 { d = (d + 7) % lines; return d * secmem.LineBytes }
			line := oracle.Fill(0, 2) // made once: fill allocates what it returns
			write := func() {
				if req, err = wire.AppendWrite(req[:0], next(), line); err != nil {
					t.Fatal(err)
				}
				call(wire.OpWrite, req)
			}
			read := func() {
				addr := next()
				req = wire.AppendAddr(req[:0], addr)
				if body := call(wire.OpRead, req); len(body) != secmem.LineBytes {
					t.Fatalf("read returned %d bytes", len(body))
				}
			}
			for i := 0; i < 2*lines; i++ { // every line resident, every buffer grown
				write()
			}
			read()
			if n := testing.AllocsPerRun(300, read); n != 0 {
				t.Errorf("a served read allocates %v times, want 0", n)
			}
			if n := testing.AllocsPerRun(300, write); n != 0 {
				t.Errorf("a served write allocates %v times, want 0", n)
			}
		})
	}
}

// sixMethodEngine is an engine with Engine's five methods plus Save and
// nothing else, spelled like the benchmark's stubEngine: New finds no
// AppendReader on it and must serve its reads through Read, byte for byte.
type sixMethodEngine struct{ line [secmem.LineBytes]byte }

func (s *sixMethodEngine) Read(uint64) ([]byte, error)        { return s.line[:], nil }
func (s *sixMethodEngine) Write(uint64, []byte) error         { return nil }
func (s *sixMethodEngine) VerifyAll() error                   { return nil }
func (s *sixMethodEngine) Stats() secmem.Stats                { return secmem.Stats{} }
func (s *sixMethodEngine) Save(io.Writer) error               { return nil }
func (s *sixMethodEngine) FlipDataBit(uint64, int, uint) bool { return false }

func TestSixMethodEngineStillServesReads(t *testing.T) {
	eng := &sixMethodEngine{}
	copy(eng.line[:], oracle.Fill(0x40, 9))
	addr, shutdown := startServer(t, eng, Config{})
	defer shutdown()
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		got, err := c.Read(0x40)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, eng.line[:]) {
			t.Fatalf("read %d through a six-method engine returned %x, want %x", i, got, eng.line)
		}
	}
	if err := c.Write(0x40, eng.line[:]); err != nil {
		t.Fatal(err)
	}
}
