package cluster

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/server"
	"github.com/securemem/morphtree/internal/wire"
)

// shard1Addr maps line index i to an address on shard 1 (addr%shards
// picks the shard for 2-shard configs: odd line indices land on shard 1).
func shard1Addr(i uint64) uint64 {
	return (2*i + 1) * secmem.LineBytes
}

// shard0Addr maps line index i to an address on shard 0.
func shard0Addr(i uint64) uint64 {
	return (2 * i) * secmem.LineBytes
}

// runMigration kicks recipient into migrating shard in from donor.
func runMigration(t *testing.T, recipient, donor string, shard uint32) *wire.MigrateResponse {
	t.Helper()
	cl, err := wire.Dial(recipient, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Migrate(&wire.MigrateRequest{
		Phase: wire.MigrateRun, Epoch: 1, Shard: shard, Donor: donor,
	})
	if err != nil {
		t.Fatalf("migrate run: %v", err)
	}
	return resp
}

// TestMigrateShardRouting: after a migration, the donor redirects the
// shard's ops to the recipient, the recipient serves them bit-for-bit,
// and ops on the other shard still belong to the primary.
func TestMigrateShardRouting(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	p := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Primary = true })
	r := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Leader = p.addr })

	cl, err := wire.Dial(p.addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const lines = 16
	for i := uint64(0); i < lines; i++ {
		if err := cl.Write(shard1Addr(i), oracle.Fill(shard1Addr(i), i)); err != nil {
			t.Fatal(err)
		}
		if err := cl.Write(shard0Addr(i), oracle.Fill(shard0Addr(i), i)); err != nil {
			t.Fatal(err)
		}
	}

	resp := runMigration(t, r.addr, p.addr, 1)
	if resp.Mark == 0 {
		t.Fatal("migration finished at mark 0")
	}

	// Donor: shard-1 ops answer the redirect naming the recipient.
	_, err = p.node.Read(shard1Addr(3))
	var me *wire.MovedError
	if !errors.As(err, &me) || me.Leader != r.addr {
		t.Fatalf("donor read of migrated shard: got %v, want MovedError to %s", err, r.addr)
	}
	err = p.node.Write(shard1Addr(3), oracle.Fill(shard1Addr(3), 99))
	if !errors.As(err, &me) || me.Leader != r.addr {
		t.Fatalf("donor write to migrated shard: got %v, want MovedError to %s", err, r.addr)
	}
	// Donor still serves the other shard.
	if err := p.node.Write(shard0Addr(3), oracle.Fill(shard0Addr(3), 99)); err != nil {
		t.Fatalf("donor write to retained shard: %v", err)
	}

	// Recipient: serves the migrated shard bit-for-bit, redirects the rest.
	for i := uint64(0); i < lines; i++ {
		got, err := r.node.Read(shard1Addr(i))
		if err != nil {
			t.Fatalf("recipient read %#x: %v", shard1Addr(i), err)
		}
		if string(got) != string(oracle.Fill(shard1Addr(i), i)) {
			t.Fatalf("line %#x diverged across migration", shard1Addr(i))
		}
	}
	if _, err := r.node.Read(shard0Addr(3)); !errors.As(err, &me) || me.Leader != p.addr {
		t.Fatalf("recipient read of unowned shard: got %v, want MovedError to %s", err, p.addr)
	}
	// Writes to the migrated shard ack on the recipient, and its verified
	// tree stays honest.
	if err := r.node.Write(shard1Addr(5), oracle.Fill(shard1Addr(5), 100)); err != nil {
		t.Fatalf("recipient write: %v", err)
	}
	if err := r.node.VerifyAll(); err != nil {
		t.Fatal(err)
	}

	// The donor's route map points the migrated shard at the recipient.
	ri, err := cl.Route()
	if err != nil {
		t.Fatal(err)
	}
	if len(ri.ShardNodes) != 2 || ri.Nodes[ri.ShardNodes[1]].Addr != r.addr {
		t.Fatalf("route after migration = %+v", ri)
	}
	if ri.Nodes[ri.ShardNodes[0]].Addr != p.addr {
		t.Fatalf("route lost the retained shard: %+v", ri)
	}

	// Tamper on the migrated shard is detected by the recipient's tree.
	if !r.node.FlipDataBit(shard1Addr(7), 3, 5) {
		t.Fatal("recipient refused tamper on its owned shard")
	}
	var ie *secmem.IntegrityError
	if _, err := r.node.Read(shard1Addr(7)); !errors.As(err, &ie) {
		t.Fatalf("tampered migrated line read: got %v, want IntegrityError", err)
	}
}

// TestMigrateUnderLoad: a client hammers the migrating shard through the
// whole hand-off; every acknowledged write must be readable afterwards
// with the acknowledged content, and none may fail integrity.
func TestMigrateUnderLoad(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	p := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Primary = true })
	r := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Leader = p.addr })

	rc := wire.NewResilient(wire.ResilientConfig{
		Addrs:       []string{p.addr, r.addr},
		Timeout:     2 * time.Second,
		MaxAttempts: 40,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		RetryWrites: true,
		Seed:        11,
	})
	defer rc.Close()

	const lines = 8
	acked := make(map[uint64]uint64, lines) // line addr -> last acked seq
	var mu sync.Mutex
	stop := make(chan struct{})
	var loadErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			addr := shard1Addr(seq % lines)
			if err := rc.Write(addr, oracle.Fill(addr, seq)); err != nil {
				mu.Lock()
				loadErr = err
				mu.Unlock()
				return
			}
			mu.Lock()
			acked[addr] = seq
			mu.Unlock()
		}
	}()

	time.Sleep(50 * time.Millisecond) // let some load land pre-migration
	runMigration(t, r.addr, p.addr, 1)
	time.Sleep(50 * time.Millisecond) // and some post-cutover
	close(stop)
	wg.Wait()
	if loadErr != nil {
		t.Fatalf("write load failed during migration: %v", loadErr)
	}

	// Every acked write is on the recipient with the acked (or a later
	// acked) content — the loader may have overwritten a line after the
	// snapshot we took of the map.
	mu.Lock()
	snapshot := make(map[uint64]uint64, len(acked))
	for a, s := range acked {
		snapshot[a] = s
	}
	mu.Unlock()
	if len(snapshot) == 0 {
		t.Fatal("no writes were acknowledged")
	}
	for addr, seq := range snapshot {
		got, err := r.node.Read(addr)
		if err != nil {
			t.Fatalf("acked line %#x lost: %v", addr, err)
		}
		if string(got) != string(oracle.Fill(addr, seq)) {
			t.Fatalf("acked line %#x has unexpected content after migration", addr)
		}
	}
	if err := r.node.VerifyAll(); err != nil {
		t.Fatalf("recipient integrity after migration under load: %v", err)
	}
	if err := p.node.VerifyAll(); err != nil {
		t.Fatalf("donor integrity after migration under load: %v", err)
	}
}

// TestMigrateAbortUnfences: a migration that cuts over but aborts leaves
// the donor serving the shard as if nothing happened.
func TestMigrateAbortUnfences(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	p := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Primary = true })

	cl, err := wire.Dial(p.addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Write(shard1Addr(1), oracle.Fill(shard1Addr(1), 1)); err != nil {
		t.Fatal(err)
	}
	// Cut over, then abort: the donor must unfence and forget the route.
	cut, err := cl.Migrate(&wire.MigrateRequest{
		Phase: wire.MigrateCutover, Epoch: 1, Shard: 1, Node: "recipient:1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Mark == 0 {
		t.Fatalf("cutover = %+v, want the final LSN of a written shard", cut)
	}
	if err := p.node.Write(shard1Addr(1), oracle.Fill(shard1Addr(1), 2)); err == nil {
		t.Fatal("write to cut-over shard succeeded on donor")
	}
	if _, err := cl.Migrate(&wire.MigrateRequest{
		Phase: wire.MigrateAbort, Epoch: 1, Shard: 1, Node: "recipient:1",
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.node.Write(shard1Addr(1), oracle.Fill(shard1Addr(1), 3)); err != nil {
		t.Fatalf("write after abort: %v", err)
	}
	if got, err := p.node.Read(shard1Addr(1)); err != nil || string(got) != string(oracle.Fill(shard1Addr(1), 3)) {
		t.Fatalf("post-abort read: %v", err)
	}
	if ri := p.node.Route(); ri.ShardNodes[1] != 0 {
		t.Fatalf("route after abort = %+v, want every shard on the donor", ri)
	}
}

// TestMigrateEpochDiscipline: donor-side phases follow the replication
// epoch rules — a stale epoch is refused with the redirect, a higher one
// fences the donor.
func TestMigrateEpochDiscipline(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	p := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Primary = true; c.Epoch = 5 })
	cl, err := wire.Dial(p.addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Migrate(&wire.MigrateRequest{Phase: wire.MigrateCutover, Epoch: 4, Shard: 0, Node: "x:1"})
	var me *wire.MovedError
	if !errors.As(err, &me) {
		t.Fatalf("stale-epoch cutover: got %v, want MovedError", err)
	}
	if err := p.node.Write(shard0Addr(1), oracle.Fill(shard0Addr(1), 1)); err != nil {
		t.Fatalf("a refused cutover fenced the shard: %v", err)
	}
	_, err = cl.Migrate(&wire.MigrateRequest{Phase: wire.MigrateCutover, Epoch: 7, Shard: 0, Node: "x:1"})
	if !errors.As(err, &me) || me.Epoch != 7 {
		t.Fatalf("future-epoch cutover: got %v, want fencing MovedError at 7", err)
	}
	if ri := p.node.Route(); ri.Role != RoleFenced {
		t.Fatalf("donor role after future-epoch migrate = %s, want fenced", ri.Role)
	}
}

// cutoverLost is a donor whose connection dies after it fenced the shard:
// Cutover takes effect and its answer never arrives.
type cutoverLost struct{ *Node }

func (d cutoverLost) Migrate(req *wire.MigrateRequest) (*wire.MigrateResponse, error) {
	resp, err := d.Node.Migrate(req)
	if err == nil && req.Phase == wire.MigrateCutover {
		return nil, errors.New("donor closed mid-run")
	}
	return resp, err
}

// TestFailedMigrationLeavesAReplica: a migration that fails after the donor
// fenced the shard aborts it — the donor serves the shard again — and leaves
// the recipient the replica it was: no snapshot bootstrap, the shard's
// writes still replicate to it, and the next migration goes through.
func TestFailedMigrationLeavesAReplica(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	p := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Primary = true })
	reg := obs.NewRegistry()
	r := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Leader = p.addr; c.Obs = reg })

	// The same donor, reached through a connection that drops Cutover's answer.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = server.New(cutoverLost{p.node}, server.Config{ReadTimeout: 2 * time.Second}).Serve(ctx, ln)
	}()
	defer func() { cancel(); <-served }()

	seq := uint64(0)
	replicated := func() {
		t.Helper()
		seq++
		if err := p.node.Write(shard1Addr(seq), oracle.Fill(shard1Addr(seq), seq)); err != nil {
			t.Fatalf("write %d at the primary: %v", seq, err)
		}
		want := p.node.memory().SyncedLSNs()[1]
		waitFor(t, "the recipient to journal the primary's shard-1 writes", func() bool {
			return r.node.memory().SyncedLSNs()[1] >= want
		})
		if got, err := r.node.memory().Read(shard1Addr(seq)); err != nil || string(got) != string(oracle.Fill(shard1Addr(seq), seq)) {
			t.Fatalf("write %d did not replicate: %v", seq, err)
		}
	}
	replicated()

	cl, err := wire.Dial(r.addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Migrate(&wire.MigrateRequest{
		Phase: wire.MigrateRun, Epoch: 1, Shard: 1, Donor: ln.Addr().String(),
	}); err == nil {
		t.Fatal("a migration whose cutover answer was lost succeeded")
	}

	// Abort reached the donor: it takes the shard's writes and routes the
	// shard to itself.
	if ri := p.node.Route(); ri.ShardNodes[1] != 0 {
		t.Fatalf("donor route after the failed migration = %+v", ri)
	}
	// Two rounds: the poll in flight when the run failed cannot answer both.
	replicated()
	replicated()
	if n := reg.Counter("cluster.bootstraps").Value(); n != 0 {
		t.Fatalf("the failed migration cost the recipient %d snapshot bootstraps", n)
	}
	if ri := r.node.Route(); ri.Role != RoleReplica {
		t.Fatalf("recipient role after the failed migration = %s", ri.Role)
	}

	runMigration(t, r.addr, p.addr, 1)
	if got, err := r.node.Read(shard1Addr(seq)); err != nil || string(got) != string(oracle.Fill(shard1Addr(seq), seq)) {
		t.Fatalf("the recipient does not serve the shard after the next migration: %v", err)
	}
}
