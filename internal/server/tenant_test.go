package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/tenant"
	"github.com/securemem/morphtree/internal/wire"
)

func tenantRegistry(t *testing.T, specs ...tenant.Spec) *tenant.Registry {
	t.Helper()
	if len(specs) == 0 {
		specs = []tenant.Spec{
			{ID: "alpha", Secret: "alpha-secret", Weight: 2},
			{ID: "beta", Secret: "beta-secret"},
		}
	}
	reg, err := tenant.NewRegistry(specs)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// startTenantServer spins up a multi-tenant server over sharded engines
// with a range registered for every tenant.
func startTenantServer(t *testing.T, reg *tenant.Registry, cfg Config) (string, func()) {
	t.Helper()
	sh := testShards(t, 2, 1<<16)
	if err := sh.RegisterTenants(reg.IDs()); err != nil {
		t.Fatal(err)
	}
	cfg.Tenants = reg
	return startServer(t, sh, cfg)
}

// mustListen and serveOn split startServer so tests can keep the *Server
// handle (for NetStats) while reusing the drain-on-shutdown plumbing.
func mustListen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func serveOn(t *testing.T, srv *Server, ln net.Listener) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
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

func wantRemote(t *testing.T, err error, substr string) {
	t.Helper()
	var re *wire.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *wire.RemoteError", err, err)
	}
	if !strings.Contains(re.Msg, substr) {
		t.Fatalf("remote error %q missing %q", re.Msg, substr)
	}
}

// TestTenantEndToEnd covers the HELLO protocol and address isolation over
// the wire: unbound connections are refused, authentication is required and
// non-enumerable, and a bound tenant's addresses are its own — the same
// address from another tenant names a line of that tenant's range.
func TestTenantEndToEnd(t *testing.T) {
	addr, shutdown := startTenantServer(t, tenantRegistry(t), Config{
		MaxConns: 8, MaxInflight: 4, ShedWait: 50 * time.Millisecond,
		Timeout: 5 * time.Second, FrameTimeout: 5 * time.Second,
	})
	defer shutdown()

	cl, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Liveness stays tenant-free; data ops do not.
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping before hello: %v", err)
	}
	_, err = cl.Read(0)
	wantRemote(t, err, "hello required")

	// A wrong secret and an unknown tenant must be indistinguishable.
	badTok := cl.Hello("alpha", "wrong-secret")
	badID := cl.Hello("nobody", "alpha-secret")
	wantRemote(t, badTok, "unknown tenant or bad token")
	wantRemote(t, badID, "unknown tenant or bad token")
	var reTok, reID *wire.RemoteError
	errors.As(badTok, &reTok)
	errors.As(badID, &reID)
	if reTok.Msg != reID.Msg {
		t.Fatalf("enumerable hello errors: %q vs %q", reTok.Msg, reID.Msg)
	}

	if err := cl.Hello("alpha", "alpha-secret"); err != nil {
		t.Fatalf("hello: %v", err)
	}
	line := oracle.Fill(0, 42)
	if err := cl.Write(0, line); err != nil {
		t.Fatalf("tenant write: %v", err)
	}
	got, err := cl.Read(0)
	if err != nil {
		t.Fatalf("tenant read: %v", err)
	}
	if !bytes.Equal(got, line) {
		t.Fatal("tenant read returned wrong contents")
	}

	// Second connection, bound to beta, reads address 0: beta's own line 0,
	// never written, so zeros — not alpha's line, and not an error.
	cl2, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if err := cl2.Hello("beta", "beta-secret"); err != nil {
		t.Fatal(err)
	}
	if got, err := cl2.Read(0); err != nil || !bytes.Equal(got, make([]byte, secmem.LineBytes)) {
		t.Fatalf("beta's untouched line 0 reads %x, %v; want zeros", got, err)
	}
	// beta's own traffic at another address is unaffected.
	if err := cl2.Write(secmem.LineBytes, oracle.Fill(secmem.LineBytes, 7)); err != nil {
		t.Fatalf("beta write: %v", err)
	}
	if _, err := cl2.Read(secmem.LineBytes); err != nil {
		t.Fatalf("beta read: %v", err)
	}
}

// TestTenantCannotOverwrite is the other half of isolation: a tenant that
// cannot read its neighbour's line must not be able to replace it either.
// The victim writes a line and has the ack; the aggressor writes the same
// address; the victim must read back its own value, not an IntegrityError
// nobody tampered to cause.
func TestTenantCannotOverwrite(t *testing.T) {
	addr, shutdown := startTenantServer(t, tenantRegistry(t), Config{
		MaxConns: 8, MaxInflight: 4, ShedWait: 50 * time.Millisecond,
		Timeout: 5 * time.Second, FrameTimeout: 5 * time.Second,
	})
	defer shutdown()

	bound := func(id, secret string) *wire.Client {
		cl, err := wire.Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Hello(id, secret); err != nil {
			cl.Close()
			t.Fatalf("hello %s: %v", id, err)
		}
		return cl
	}
	victim := bound("alpha", "alpha-secret")
	defer victim.Close()
	aggressor := bound("beta", "beta-secret")
	defer aggressor.Close()

	const at = 2 * secmem.LineBytes
	mine := oracle.Fill(at, 1)
	if err := victim.Write(at, mine); err != nil {
		t.Fatalf("victim write: %v", err)
	}
	_ = aggressor.Write(at, oracle.Fill(at, 2)) // refused or not, the victim's line must survive
	got, err := victim.Read(at)
	if err != nil {
		t.Fatalf("victim reads back its acknowledged line: %v", err)
	}
	if !bytes.Equal(got, mine) {
		t.Fatal("victim reads back a line it did not write")
	}
}

// TestTenantRangeRefused: a bound tenant's range ends at its size. The first
// address past it is refused with a typed error that is not an integrity
// error (nothing was tampered with), for READ, WRITE and PROOF alike, and the
// connection goes on serving the tenant's last line. A proof for a bound
// tenant's line names the line's global address.
func TestTenantRangeRefused(t *testing.T) {
	sh := testShards(t, 2, 1<<16)
	reg := tenantRegistry(t)
	if err := sh.RegisterTenants(reg.IDs()); err != nil {
		t.Fatal(err)
	}
	_, size, _ := sh.TenantRange("alpha")
	betaBase, _, _ := sh.TenantRange("beta")
	addr, shutdown := startServer(t, sh, Config{
		Tenants: reg, Authority: testAuthority(t),
		Timeout: 5 * time.Second, FrameTimeout: 5 * time.Second,
	})
	defer shutdown()
	cl, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Hello("alpha", "alpha-secret"); err != nil {
		t.Fatal(err)
	}
	_, readErr := cl.Read(size)
	_, proofErr := cl.Proof(size)
	for op, err := range map[string]error{
		"read":  readErr,
		"write": cl.Write(size, oracle.Fill(size, 1)),
		"proof": proofErr,
	} {
		var ie *secmem.IntegrityError
		if errors.As(err, &ie) {
			t.Fatalf("%s past the range: %v, an integrity error", op, err)
		}
		wantRemote(t, err, "outside its range")
	}
	last := size - secmem.LineBytes
	if err := cl.Write(last, oracle.Fill(last, 2)); err != nil {
		t.Fatalf("write of the range's last line after the refusals: %v", err)
	}
	if got, err := cl.Read(last); err != nil || !bytes.Equal(got, oracle.Fill(last, 2)) {
		t.Fatalf("read of the range's last line after the refusals: %x, %v", got, err)
	}

	beta, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer beta.Close()
	if err := beta.Hello("beta", "beta-secret"); err != nil {
		t.Fatal(err)
	}
	if p, err := beta.Proof(secmem.LineBytes); err != nil || p.Addr != betaBase+secmem.LineBytes {
		t.Fatalf("beta's proof of its line 1: %v, want one for global address %#x", err, betaBase+secmem.LineBytes)
	}
}

// TestHelloSingleTenant pins the compatibility edge: a server without a
// tenant registry refuses HELLO, and plain ops keep working unbound.
func TestHelloSingleTenant(t *testing.T) {
	sh := testShards(t, 1, 1<<14)
	addr, shutdown := startServer(t, sh, Config{
		MaxConns: 4, MaxInflight: 2,
		Timeout: 5 * time.Second, FrameTimeout: 5 * time.Second,
	})
	defer shutdown()
	cl, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	wantRemote(t, cl.Hello("alpha", "alpha-secret"), "single-tenant")
	if err := cl.Write(0, oracle.Fill(0, 1)); err != nil {
		t.Fatalf("unbound write on single-tenant server: %v", err)
	}
}

// TestTenantQuotaShed drives a rate-limited tenant past its ops budget
// and checks the whole shed pipeline: the typed *tenant.QuotaError over
// the wire, the server's QuotaShed counter, the quota_shed trace event,
// and the satellite admission-limit gauges in /metricz's registry.
func TestTenantQuotaShed(t *testing.T) {
	reg := tenantRegistry(t,
		tenant.Spec{ID: "limited", Secret: "ls", OpsPerSec: 1},
	)
	oreg := obs.NewRegistry()
	tracer := oreg.Tracer()
	sh := testShards(t, 2, 1<<16)
	if err := sh.RegisterTenants(reg.IDs()); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		MaxConns: 8, MaxInflight: 4, ShedWait: 50 * time.Millisecond,
		Timeout: 5 * time.Second, FrameTimeout: 5 * time.Second,
		Tenants: reg, Obs: oreg,
	}
	ln, srv := mustListen(t), New(sh, cfg)
	addr, shutdown := serveOn(t, srv, ln)
	defer shutdown()

	cl, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Hello("limited", "ls"); err != nil {
		t.Fatal(err)
	}
	// Burst is one second of a 1 op/s rate: the first op passes, an
	// immediate second op finds an empty bucket.
	if err := cl.Write(0, oracle.Fill(0, 1)); err != nil {
		t.Fatalf("first op: %v", err)
	}
	var qe *tenant.QuotaError
	_, err = cl.Read(0)
	if !errors.As(err, &qe) {
		t.Fatalf("second op = %v (%T), want *tenant.QuotaError", err, err)
	}
	if qe.Tenant != "limited" || qe.Resource != "ops" {
		t.Fatalf("quota error = %+v", qe)
	}

	if ns := srv.NetStats(); ns.QuotaShed == 0 {
		t.Fatal("NetStats().QuotaShed = 0 after a quota shed")
	}
	if n := tracer.Count(obs.KindQuotaShed); n == 0 {
		t.Fatal("no quota_shed trace events")
	}
	if n := tracer.Count(obs.KindTenantBind); n == 0 {
		t.Fatal("no tenant_bind trace events")
	}

	snap := oreg.Snapshot()
	if got := snap.Gauges["server.limit.max_inflight"]; got != 4 {
		t.Fatalf("server.limit.max_inflight gauge = %d, want 4", got)
	}
	if got := snap.Gauges["server.limit.max_conns"]; got != 8 {
		t.Fatalf("server.limit.max_conns gauge = %d, want 8", got)
	}
	if got := snap.Counters["server.quota_shed"]; got == 0 {
		t.Fatal("server.quota_shed counter = 0")
	}
	if got := snap.Counters["tenant.limited.shed.ops"]; got == 0 {
		t.Fatal("tenant.limited.shed.ops counter = 0")
	}
}

// TestNetStatsLimits pins the satellite: effective admission limits are
// part of NetStats, including the defaulted MaxInflight.
func TestNetStatsLimits(t *testing.T) {
	sh := testShards(t, 1, 1<<14)
	srv := New(sh, Config{MaxConns: 7, ShedWait: 3 * time.Millisecond,
		Timeout: time.Second, FrameTimeout: time.Second})
	ns := srv.NetStats()
	if ns.MaxConns != 7 {
		t.Fatalf("MaxConns = %d, want 7", ns.MaxConns)
	}
	if ns.MaxInflight <= 0 {
		t.Fatalf("defaulted MaxInflight = %d, want > 0", ns.MaxInflight)
	}
	if ns.ShedWaitMicros != 3000 {
		t.Fatalf("ShedWaitMicros = %d, want 3000", ns.ShedWaitMicros)
	}
}

// TestResilientClientTenant exercises the client side of tenant binding:
// a resilient client configured with tenant credentials HELLOs after every
// dial, retries quota sheds with backoff, and succeeds once the bucket
// refills; with a wrong secret its first op fails on the refused HELLO,
// which is a verdict, not a dial failure to retry.
func TestResilientClientTenant(t *testing.T) {
	reg := tenantRegistry(t,
		tenant.Spec{ID: "slow", Secret: "ss", OpsPerSec: 20},
	)
	addr, shutdown := startTenantServer(t, reg, Config{
		MaxConns: 8, MaxInflight: 4, ShedWait: 50 * time.Millisecond,
		Timeout: 5 * time.Second, FrameTimeout: 5 * time.Second,
	})
	defer shutdown()
	cl := wire.NewResilient(wire.ResilientConfig{
		Addrs: []string{addr}, Timeout: 5 * time.Second, MaxAttempts: 20,
		TenantID: "slow", TenantSecret: "ss",
	})
	defer cl.Close()
	line := oracle.Fill(0, 9)
	// Far more ops than the burst: success requires absorbing quota sheds
	// via retry, not just luck.
	for i := 0; i < 30; i++ {
		if err := cl.Write(0, line); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if got, err := cl.Read(0); err != nil || !bytes.Equal(got, line) {
		t.Fatalf("final read: %v", err)
	}
	if cl.Counters().Sheds == 0 {
		t.Fatal("resilient client absorbed no sheds at 20 ops/s burst 20 over 31 ops")
	}
	// Bad credentials, default attempt budget: the server refuses the
	// HELLO, and the op fails on its first attempt with that verdict.
	bad := wire.NewResilient(wire.ResilientConfig{
		Addrs: []string{addr}, Timeout: time.Second,
		TenantID: "slow", TenantSecret: "wrong",
	})
	defer bad.Close()
	_, err := bad.Read(0)
	var re *wire.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("read with bad tenant credentials: %v, want *wire.RemoteError in the chain", err)
	}
	if st := bad.Counters(); st.Retries != 0 || st.Failures != 1 {
		t.Fatalf("counters = %+v, want 0 retries, 1 failure: a refused HELLO is not retried", st)
	}
}

// TestTenantStatsShowOnlyTheBoundTenant: a bound tenant's STATS carries its
// own row of the tenant table and no other tenant's id or traffic, as
// /metricz?tenant= scopes the counters it serves.
func TestTenantStatsShowOnlyTheBoundTenant(t *testing.T) {
	addr, shutdown := startTenantServer(t, tenantRegistry(t), Config{
		Timeout: 5 * time.Second, FrameTimeout: 5 * time.Second,
	})
	defer shutdown()
	bound := func(id, secret string) *wire.Client {
		cl, err := wire.Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		if err := cl.Hello(id, secret); err != nil {
			t.Fatal(err)
		}
		return cl
	}
	alpha, beta := bound("alpha", "alpha-secret"), bound("beta", "beta-secret")
	if err := alpha.Write(0, oracle.Fill(0, 1)); err != nil {
		t.Fatal(err)
	}
	st, err := beta.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, leaked := st.Tenants["alpha"]; leaked || len(st.Tenants) != 1 {
		t.Fatalf("beta's STATS tenant table = %v, want beta's row only", st.Tenants)
	}
	if st, err = alpha.Stats(); err != nil {
		t.Fatal(err)
	}
	if got := st.Tenants["alpha"].Writes; got != 1 || len(st.Tenants) != 1 {
		t.Fatalf("alpha's STATS tenant table = %v, want alpha's row with 1 write", st.Tenants)
	}
}

// TestRetiredObsOpcodeIsUnknown: 0x09, which was OpObs and handed any bound
// tenant the whole registry — every other tenant's tenant.<id>.* counters
// among it — is an unknown opcode even to a server that has a registry.
func TestRetiredObsOpcodeIsUnknown(t *testing.T) {
	const opObs = 0x09 // retired OpObs
	addr, shutdown := startTenantServer(t, tenantRegistry(t), Config{
		Obs:     obs.NewRegistry(),
		Timeout: 5 * time.Second, FrameTimeout: 5 * time.Second,
	})
	defer shutdown()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	hello, err := wire.AppendHello(nil, "beta", tenant.HelloToken("beta-secret", "beta"))
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func(op byte, payload []byte) (byte, []byte) {
		t.Helper()
		if err := wire.WriteFrame(conn, op, payload); err != nil {
			t.Fatal(err)
		}
		status, body, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		return status, body
	}
	if status, body := roundTrip(wire.OpHello, hello); status != wire.StatusOK {
		t.Fatalf("hello answered status %#x: %s", status, body)
	}
	status, body := roundTrip(opObs, nil)
	if bytes.Contains(body, []byte("tenant.alpha.")) {
		t.Fatalf("opcode %#x handed beta alpha's counters (%d bytes)", opObs, len(body))
	}
	var re *wire.RemoteError
	if err := wire.DecodeError(status, body); !errors.As(err, &re) || !strings.Contains(re.Msg, fmt.Sprintf("unknown opcode %#x", opObs)) {
		t.Fatalf("opcode %#x answered status %#x (%d bytes), want a remote error naming the unknown opcode", opObs, status, len(body))
	}
}
