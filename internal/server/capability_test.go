package server

import (
	"io"
	"testing"

	"github.com/securemem/morphtree/internal/cluster"
	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/tenant"
	"github.com/securemem/morphtree/internal/wire"
)

// stubEngine is an engine spelled as the benchmark's is
// (bench/morphbench/ladder.go) — Engine's five methods, Save, which Engine no
// longer asks for, and nothing else: if this stops satisfying Engine, so does
// that.
type stubEngine struct{ line [secmem.LineBytes]byte }

func (s *stubEngine) Read(uint64) ([]byte, error)        { return s.line[:], nil }
func (s *stubEngine) Write(uint64, []byte) error         { return nil }
func (s *stubEngine) VerifyAll() error                   { return nil }
func (s *stubEngine) Stats() secmem.Stats                { return secmem.Stats{} }
func (s *stubEngine) Save(io.Writer) error               { return nil }
func (s *stubEngine) FlipDataBit(uint64, int, uint) bool { return false }

// TestCapabilityAnswers pins what a server built with the zero Config answers
// for each engine it is built over, per optional surface: the bytes were
// recorded at the last commit that found the surfaces with six assertions in
// three functions. REPLICATE, the one cluster op, answers only a bound peer
// (TestUnboundReplicateIsRefusedUnread).
func TestCapabilityAnswers(t *testing.T) {
	dm, _ := openDurable(t, t.TempDir(), 2, 1<<13, durable.Config{})
	defer dm.Close()
	cn, err := cluster.Open(testShardConfig(t, 2, 1<<13), durable.Config{Dir: t.TempDir()}, cluster.Config{Self: "self:1", Primary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	hello, err := wire.AppendHello(nil, "a", tenant.HelloToken("s", "a"))
	if err != nil {
		t.Fatal(err)
	}

	const (
		zeros        = "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
		noProver     = "proof: server has no proving engine or signing authority"
		singleTenant = "hello: this server is single-tenant"
	)
	ops := []struct {
		op      byte
		payload []byte
	}{
		{wire.OpRead, wire.AppendAddr(nil, 0)},
		{wire.OpProof, wire.AppendAddr(nil, 0)},
		{wire.OpHello, hello},
	}
	type answer struct {
		status byte
		body   string
	}
	ok, fail := wire.StatusOK, wire.StatusError
	for _, e := range []struct {
		name string
		eng  Engine
		want [3]answer // in ops' order
	}{
		{"stub", &stubEngine{}, [3]answer{{ok, zeros}, {fail, noProver}, {fail, singleTenant}}},
		{"sharded", testShards(t, 2, 1<<13), [3]answer{{ok, zeros}, {fail, noProver}, {fail, singleTenant}}},
		{"durable", dm, [3]answer{{ok, zeros}, {fail, noProver}, {fail, singleTenant}}},
		{"cluster", cn, [3]answer{{ok, zeros}, {fail, noProver}, {fail, singleTenant}}},
	} {
		srv := New(e.eng, Config{})
		for i, op := range ops {
			status, body := srv.dispatch(&connState{}, op.op, op.payload)
			if want := e.want[i]; status != want.status || string(body) != want.body {
				t.Errorf("%s over %s: status %#x body %q, want %#x %q", wire.OpName(op.op), e.name, status, body, want.status, want.body)
			}
		}
	}
}
