package server

import (
	"bytes"
	"math"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/cluster"
	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/tenant"
	"github.com/securemem/morphtree/internal/wire"
)

// TestUnboundReplicateIsRefusedUnread: a REPLICATE from a connection that
// never bound as a peer, one whose peer HELLO carried a bad token, and one
// whose payload would not even decode are answered with the same bytes, and
// none of them fences the primary or joins its ack table. A bound peer's
// poll is served and joins it.
//
// The good token is the cluster package's to derive; the bound half binds
// through trusting, which vouches for any token, and the cluster tests'
// replicas bind with the real one.
func TestUnboundReplicateIsRefusedUnread(t *testing.T) {
	shcfg := testShardConfig(t, 2, 1<<13)
	cn, err := cluster.Open(shcfg, durable.Config{Dir: t.TempDir()},
		cluster.Config{Self: "self:1", Primary: true, PollWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	srv := New(cn, Config{})

	poll, err := wire.EncodeReplicateRequest(&wire.ReplicateRequest{Epoch: math.MaxUint64, Node: "evil:1", Marks: []uint64{0, 0}, CWRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	badHello, err := wire.AppendHello(nil, tenant.PeerID, tenant.HelloToken("not the master key", tenant.PeerID))
	if err != nil {
		t.Fatal(err)
	}

	unbound, badToken := &connState{}, &connState{}
	status, refusal := srv.dispatch(unbound, wire.OpReplicate, poll)
	if status != wire.StatusError {
		t.Fatalf("unbound poll answered status %#x %q", status, refusal)
	}
	if status, body := srv.dispatch(badToken, wire.OpHello, badHello); status != wire.StatusError || string(body) != "hello: unknown tenant or bad token" {
		t.Fatalf("bad-token peer HELLO answered %#x %q, want the tenant HELLO's refusal", status, body)
	}
	for name, try := range map[string]struct {
		cs      *connState
		payload []byte
	}{
		"bad token":     {badToken, poll},
		"undecodable":   {unbound, []byte{1, 2, 3}},
		"unbound again": {unbound, poll},
	} {
		status, body := srv.dispatch(try.cs, wire.OpReplicate, try.payload)
		if status != wire.StatusError || !bytes.Equal(body, refusal) {
			t.Errorf("%s: answered %#x %q, want the unbound poll's %q", name, status, body, refusal)
		}
	}
	if ri := cn.Route(); ri.Role != cluster.RolePrimary || ri.Epoch != 1 || len(ri.Nodes) != 1 {
		t.Fatalf("refused polls moved the primary: %+v", ri)
	}

	peer := &connState{}
	srv = New(trusting{cn}, Config{})
	if status, body := srv.dispatch(peer, wire.OpHello, badHello); status != wire.StatusOK {
		t.Fatalf("peer HELLO answered %#x %q", status, body)
	}
	good, err := wire.EncodeReplicateRequest(&wire.ReplicateRequest{Epoch: 1, Node: "peer:1", Marks: []uint64{0, 0}, CWRecords: true, PagedBootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	if status, body := srv.dispatch(peer, wire.OpReplicate, good); status != wire.StatusOK {
		t.Fatalf("bound poll answered %#x %q", status, body)
	}
	if ri := cn.Route(); len(ri.Nodes) != 2 || ri.Nodes[1].Addr != "peer:1" {
		t.Fatalf("the bound poller is not in the ack table: %+v", ri.Nodes)
	}
}

// trusting is a cluster node that binds a peer whatever its token.
type trusting struct{ *cluster.Node }

func (trusting) AuthenticatePeer([]byte) bool { return true }

// TestPeerBindingGrantsNoDataOp: in tenant mode a connection bound as a
// cluster peer is still unbound as a tenant, so a data op is refused as
// from any connection that has not said HELLO; and a server that is no
// cluster node binds no peer.
func TestPeerBindingGrantsNoDataOp(t *testing.T) {
	shcfg := testShardConfig(t, 2, 1<<16)
	reg := tenantRegistry(t)
	shcfg.Tenants = reg.IDs()
	cn, err := cluster.Open(shcfg, durable.Config{Dir: t.TempDir()}, cluster.Config{Self: "self:1", Primary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	srv := New(trusting{cn}, Config{Tenants: reg})
	hello, err := wire.AppendHello(nil, tenant.PeerID, [tenant.TokenLen]byte{})
	if err != nil {
		t.Fatal(err)
	}
	cs := &connState{}
	if status, body := srv.dispatch(cs, wire.OpHello, hello); status != wire.StatusOK {
		t.Fatalf("peer HELLO answered %#x %q", status, body)
	}
	if status, body := srv.dispatch(cs, wire.OpRead, wire.AppendAddr(nil, 0)); status != wire.StatusError || string(body) != "hello required: this server is multi-tenant" {
		t.Fatalf("a peer's READ answered %#x %q, want the unbound refusal", status, body)
	}
	// A server over an engine that is no cluster node binds no peer.
	plain := New(testShards(t, 2, 1<<13), Config{})
	if status, body := plain.dispatch(&connState{}, wire.OpHello, hello); status != wire.StatusError || string(body) != "hello: unknown tenant or bad token" {
		t.Fatalf("a peer HELLO to a non-cluster server answered %#x %q", status, body)
	}
}
