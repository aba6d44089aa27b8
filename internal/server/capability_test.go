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
// three functions. One cell moved on purpose: ROUTE on a *cluster.Node then
// needed Config.Cluster set to the same node — every caller did — and
// answered "not a cluster node" without; the node is now found like every
// other surface, and the zero Config answers what Config{Cluster: node} did.
// Its body has since dropped "shard_nodes", a map that always named the
// leader once live shard migration was gone.
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
		seq2         = "\x00\x00\x00\x00\x00\x00\x00\x02"
		noDurable    = "checkpoint: server has no durable store (start with -data-dir)"
		noProver     = "proof: server has no proving engine or signing authority"
		noCluster    = "route: this server is not a cluster node (start with -cluster)"
		singleTenant = "hello: this server is single-tenant"
		route        = `{"epoch":1,"self":"self:1","role":"primary","leader":"self:1","nodes":[{"addr":"self:1","role":"primary"}],"marks":[0,0],"lease_remaining_ms":-1}`
	)
	ops := []struct {
		op      byte
		payload []byte
	}{
		{wire.OpRead, wire.EncodeAddr(0)},
		{wire.OpCheckpoint, nil},
		{wire.OpProof, wire.EncodeAddr(0)},
		{wire.OpRoute, nil},
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
		want [5]answer // in ops' order
	}{
		{"stub", &stubEngine{}, [5]answer{{ok, zeros}, {fail, noDurable}, {fail, noProver}, {fail, noCluster}, {fail, singleTenant}}},
		{"sharded", testShards(t, 2, 1<<13), [5]answer{{ok, zeros}, {fail, noDurable}, {fail, noProver}, {fail, noCluster}, {fail, singleTenant}}},
		{"durable", dm, [5]answer{{ok, zeros}, {ok, seq2}, {fail, noProver}, {fail, noCluster}, {fail, singleTenant}}},
		{"cluster", cn, [5]answer{{ok, zeros}, {ok, seq2}, {fail, noProver}, {ok, route}, {fail, singleTenant}}},
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
