package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/server"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wire"
)

var testKey = []byte("0123456789abcdef")

func testShardCfg(t testing.TB, shards int, memBytes uint64) shard.Config {
	t.Helper()
	enc, tree, err := shard.Organization("morph128")
	if err != nil {
		t.Fatal(err)
	}
	return shard.Config{
		Shards: shards,
		Mem: secmem.Config{
			MemoryBytes: memBytes,
			Enc:         enc,
			Tree:        tree,
			Key:         testKey,
		},
	}
}

// testNode is one in-process cluster member served over loopback.
type testNode struct {
	addr   string
	node   *Node
	cancel context.CancelFunc
	done   chan struct{}
}

// tuned returns the fast-timing Config shared by the loopback tests.
func tuned(self string) Config {
	return Config{
		Self:        self,
		Lease:       150 * time.Millisecond,
		AckTimeout:  2 * time.Second,
		PollWait:    30 * time.Millisecond,
		PollRetry:   5 * time.Millisecond,
		DialTimeout: time.Second,
	}
}

func testDCfg(t *testing.T) durable.Config {
	return durable.Config{Dir: t.TempDir(), Sync: durable.SyncAlways}
}

// startNode opens a cluster node on a fresh loopback listener and serves
// it. The listener is created first so the advertised address is known
// before Open.
func startNode(t *testing.T, shcfg shard.Config, dcfg durable.Config, mutate func(*Config)) *testNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tuned(ln.Addr().String())
	mutate(&cfg)
	n, err := Open(shcfg, dcfg, cfg)
	if err != nil {
		_ = ln.Close()
		t.Fatal(err)
	}
	srv := server.New(n, server.Config{ReadTimeout: 2 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, ln)
	}()
	tn := &testNode{addr: cfg.Self, node: n, cancel: cancel, done: done}
	t.Cleanup(func() { tn.kill(); _ = n.Close() })
	return tn
}

// kill stops serving (the node object stays alive for inspection).
func (tn *testNode) kill() {
	tn.node.Halt() // unblock ack waiters before the drain
	tn.cancel()
	<-tn.done
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func covers(marks, min []uint64) bool {
	for i := range min {
		if marks[i] < min[i] {
			return false
		}
	}
	return true
}

func maxMarks(a, b []uint64) []uint64 {
	out := append([]uint64(nil), a...)
	for i := range out {
		if i < len(b) && b[i] > out[i] {
			out[i] = b[i]
		}
	}
	return out
}

// TestClusterReplicationEndToEnd: writes acknowledged by the primary
// appear, bit-for-bit, on both followers' verified engines.
func TestClusterReplicationEndToEnd(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	p := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Primary = true; c.AckReplicas = 1 })
	a := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Leader = p.addr })
	b := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Leader = p.addr })

	cl, err := wire.Dial(p.addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const writes = 24
	for i := uint64(0); i < writes; i++ {
		addr := (i % 16) * secmem.LineBytes
		if err := cl.Write(addr, oracle.Fill(addr, i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	want := p.node.memory().SyncedLSNs()
	for _, follower := range []*testNode{a, b} {
		waitFor(t, "follower catch-up", func() bool {
			return covers(follower.node.memory().SyncedLSNs(), want)
		})
		// The replicated state must be verifiable and byte-identical.
		if err := follower.node.VerifyAll(); err != nil {
			t.Fatalf("replica VerifyAll: %v", err)
		}
		for i := uint64(writes - 16); i < writes; i++ {
			addr := (i % 16) * secmem.LineBytes
			got, err := follower.node.memory().Read(addr)
			if err != nil {
				t.Fatalf("replica read %#x: %v", addr, err)
			}
			lastSeq := i
			for j := i + 1; j < writes; j++ {
				if (j % 16) == (i % 16) {
					lastSeq = j
				}
			}
			if string(got) != string(oracle.Fill(addr, lastSeq)) {
				t.Fatalf("replica line %#x diverged from primary", addr)
			}
		}
	}

	// The route map from the primary names both pollers.
	ri, err := cl.Route()
	if err != nil {
		t.Fatal(err)
	}
	if ri.Role != RolePrimary || ri.Leader != p.addr || len(ri.Nodes) != 3 {
		t.Fatalf("primary route = %+v", ri)
	}
}

// TestClusterFailoverPreservesAckedWrites: kill the primary mid-load,
// promote the best survivor, and every acknowledged write must be
// readable on the new primary.
func TestClusterFailoverPreservesAckedWrites(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	p := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Primary = true; c.AckReplicas = 1 })
	a := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Leader = p.addr })
	b := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Leader = p.addr })
	a.node.SetPeers([]string{p.addr, b.addr})
	b.node.SetPeers([]string{p.addr, a.addr})

	rc := wire.NewResilient(wire.ResilientConfig{
		Addrs:       []string{p.addr, a.addr, b.addr},
		Timeout:     time.Second,
		MaxAttempts: 30,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		RetryWrites: true,
		Seed:        7,
	})
	defer rc.Close()

	acked := map[uint64]uint64{} // line addr -> last acked seq
	const before = 30
	for i := uint64(0); i < before; i++ {
		addr := (i % 16) * secmem.LineBytes
		if err := rc.Write(addr, oracle.Fill(addr, i)); err != nil {
			t.Fatalf("pre-kill write %d: %v", i, err)
		}
		acked[addr] = i
	}

	p.kill()
	time.Sleep(200 * time.Millisecond) // let the lease expire

	// Control plane: survey survivors, promote the most caught-up one.
	ra, rb := a.node.Route(), b.node.Route()
	min := maxMarks(ra.Marks, rb.Marks)
	candidate, other := a, b
	if !covers(ra.Marks, min) {
		candidate, other = b, a
	}
	if _, err := candidate.node.Promote(2, min); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := other.node.Follow(2, candidate.addr); err != nil {
		t.Fatalf("follow: %v", err)
	}

	// Clients keep writing through the failover.
	for i := uint64(before); i < before+20; i++ {
		addr := (i % 16) * secmem.LineBytes
		if err := rc.Write(addr, oracle.Fill(addr, i)); err != nil {
			t.Fatalf("post-kill write %d: %v", i, err)
		}
		acked[addr] = i
	}
	// Dial-failure rotation may land straight on the new primary, so the
	// shared client only proves liveness; a client seeded with the deposed
	// follower alone must be redirected by its MovedError.
	if st := rc.Counters(); st.Reroutes == 0 && st.Reconnects == 0 {
		t.Fatalf("failover without any reroute or reconnect: %+v", st)
	}
	rc2 := wire.NewResilient(wire.ResilientConfig{
		Addrs:       []string{other.addr},
		Timeout:     time.Second,
		MaxAttempts: 10,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		RetryWrites: true,
	})
	defer rc2.Close()
	{
		addr := uint64(0)
		seq := uint64(before + 20)
		if err := rc2.Write(addr, oracle.Fill(addr, seq)); err != nil {
			t.Fatalf("write via deposed follower: %v", err)
		}
		acked[addr] = seq
	}
	if st := rc2.Counters(); st.Reroutes == 0 {
		t.Fatalf("moved redirect did not count as reroute: %+v", st)
	}

	// Every acked write is on the new primary, verified.
	if err := candidate.node.VerifyAll(); err != nil {
		t.Fatalf("new primary VerifyAll: %v", err)
	}
	for addr, seq := range acked {
		got, err := rc.Read(addr)
		if err != nil {
			t.Fatalf("read-back %#x: %v", addr, err)
		}
		if string(got) != string(oracle.Fill(addr, seq)) {
			t.Fatalf("acked write lost at %#x (want seq %d)", addr, seq)
		}
	}
}

// TestClusterPromoteCatchUpFromDonor: a lagging candidate must pull the
// missing WAL suffix from a donor replica before assuming leadership.
func TestClusterPromoteCatchUpFromDonor(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	p := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Primary = true; c.AckReplicas = 1 })
	a := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Leader = p.addr })
	// B follows a dead address, so it never replicates anything itself.
	b := startNode(t, shcfg, testDCfg(t), func(c *Config) {
		c.Leader = "127.0.0.1:1"
		c.Peers = []string{a.addr}
	})

	cl, err := wire.Dial(p.addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := uint64(0); i < 20; i++ {
		addr := (i % 8) * secmem.LineBytes
		if err := cl.Write(addr, oracle.Fill(addr, i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	min := p.node.memory().SyncedLSNs()
	waitFor(t, "donor catch-up", func() bool {
		return covers(a.node.memory().SyncedLSNs(), min)
	})
	p.kill()
	time.Sleep(200 * time.Millisecond)

	if covers(b.node.memory().SyncedLSNs(), min) {
		t.Fatal("test broken: candidate is not behind")
	}
	if _, err := b.node.Promote(2, min); err != nil {
		t.Fatalf("promote with catch-up: %v", err)
	}
	if !covers(b.node.memory().SyncedLSNs(), min) {
		t.Fatalf("promoted below minMarks: %v < %v", b.node.memory().SyncedLSNs(), min)
	}
	if err := b.node.VerifyAll(); err != nil {
		t.Fatalf("caught-up candidate VerifyAll: %v", err)
	}
	// And the caught-up content matches the dead primary's final state.
	for i := uint64(12); i < 20; i++ {
		addr := (i % 8) * secmem.LineBytes
		got, err := b.node.Read(addr)
		if err != nil {
			t.Fatalf("read %#x on new primary: %v", addr, err)
		}
		if string(got) != string(oracle.Fill(addr, i)) {
			t.Fatalf("line %#x lost in catch-up", addr)
		}
	}
}

// TestClusterSnapshotBootstrap: a follower whose cursor predates the
// primary's retained log gets a full snapshot, then streams normally.
func TestClusterSnapshotBootstrap(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	// A tiny replication ring plus a checkpoint evicts the history a
	// zero-cursor replica would need: the ring no longer reaches LSN 1 and
	// the checkpoint truncated the on-disk segment, so only a snapshot can
	// serve the cursor.
	pd := testDCfg(t)
	pd.ReplHistory = 4
	p := startNode(t, shcfg, pd, func(c *Config) { c.Primary = true })

	cl, err := wire.Dial(p.addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := uint64(0); i < 20; i++ {
		addr := (i % 8) * secmem.LineBytes
		if err := cl.Write(addr, oracle.Fill(addr, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.node.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	a := startNode(t, shcfg, testDCfg(t), func(c *Config) {
		c.Leader = p.addr
		c.Obs = reg
	})
	min := p.node.memory().SyncedLSNs()
	waitFor(t, "bootstrap + catch-up", func() bool {
		return covers(a.node.memory().SyncedLSNs(), min)
	})
	if got := a.node.cBootstraps.Value(); got != 1 {
		t.Fatalf("bootstraps = %d, want 1", got)
	}
	// Streaming still works after the bootstrap.
	if err := cl.Write(0, oracle.Fill(0, 999)); err != nil {
		t.Fatal(err)
	}
	min = p.node.memory().SyncedLSNs()
	waitFor(t, "post-bootstrap streaming", func() bool {
		return covers(a.node.memory().SyncedLSNs(), min)
	})
	got, err := a.node.memory().Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(oracle.Fill(0, 999)) {
		t.Fatal("post-bootstrap write did not replicate")
	}
	if err := a.node.VerifyAll(); err != nil {
		t.Fatalf("bootstrapped replica VerifyAll: %v", err)
	}
}

// --- unit-level role/fencing tests (no servers) -----------------------

// openBare opens a node without serving it.
func openBare(t *testing.T, shcfg shard.Config, dir string, mutate func(*Config)) *Node {
	t.Helper()
	cfg := tuned("127.0.0.1:9")
	mutate(&cfg)
	n, err := Open(shcfg, durable.Config{Dir: dir, Sync: durable.SyncAlways}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

func TestReplicaRefusesDataOps(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	n := openBare(t, shcfg, t.TempDir(), func(c *Config) { c.Leader = "127.0.0.1:1" })
	err := n.Write(0, oracle.Fill(0, 1))
	var me *wire.MovedError
	if !errors.As(err, &me) || me.Leader != "127.0.0.1:1" || me.Epoch != 1 {
		t.Fatalf("replica write err = %v, want MovedError naming the leader", err)
	}
	if _, err := n.Read(0); !wire.IsMoved(err) {
		t.Fatalf("replica read err = %v, want moved", err)
	}
	if n.FlipDataBit(0, 0, 1) {
		t.Fatal("replica honored tamper")
	}
}

func TestAckTimeoutIsTyped(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	n := openBare(t, shcfg, t.TempDir(), func(c *Config) {
		c.Primary = true
		c.AckReplicas = 1
		c.AckTimeout = 50 * time.Millisecond
	})
	err := n.Write(0, oracle.Fill(0, 1))
	var ate *AckTimeoutError
	if !errors.As(err, &ate) {
		t.Fatalf("err = %v, want AckTimeoutError", err)
	}
	if ate.Need != 1 || ate.Have != 0 {
		t.Fatalf("ack detail = %+v", ate)
	}
	// The write is still locally durable despite the failed ack.
	if got, err := n.memory().Read(0); err != nil || string(got) != string(oracle.Fill(0, 1)) {
		t.Fatalf("locally durable write unreadable: %v", err)
	}
}

func TestHigherEpochPollFences(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	n := openBare(t, shcfg, t.TempDir(), func(c *Config) { c.Primary = true })
	_, err := n.Replicate(&wire.ReplicateRequest{Epoch: 5, Node: "x", Marks: []uint64{0, 0}})
	if !wire.IsMoved(err) {
		t.Fatalf("higher-epoch poll answered %v, want moved", err)
	}
	err = n.Write(0, oracle.Fill(0, 1))
	var me *wire.MovedError
	if !errors.As(err, &me) || me.Epoch != 5 || me.Leader != "" {
		t.Fatalf("fenced write err = %v, want leaderless moved at epoch 5", err)
	}
	if ri := n.Route(); ri.Role != RoleFenced || ri.Epoch != 5 {
		t.Fatalf("route after fence = %+v", ri)
	}
}

func TestStaleEpochPollRefused(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	n := openBare(t, shcfg, t.TempDir(), func(c *Config) { c.Primary = true; c.Epoch = 5 })
	_, err := n.Replicate(&wire.ReplicateRequest{Epoch: 1, Node: "x", Marks: []uint64{0, 0}})
	var me *wire.MovedError
	if !errors.As(err, &me) || me.Epoch != 5 {
		t.Fatalf("stale poll err = %v, want moved at epoch 5", err)
	}
	if ri := n.Route(); ri.Role != RolePrimary {
		t.Fatal("stale poll must not fence the primary")
	}
}

func TestPromoteRefusedWhileLeaseFresh(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	n := openBare(t, shcfg, t.TempDir(), func(c *Config) {
		c.Leader = "127.0.0.1:1"
		c.Lease = time.Hour
	})
	_, err := n.Promote(2, []uint64{0, 0})
	var le *LeaseError
	if !errors.As(err, &le) || le.Remaining <= 0 {
		t.Fatalf("promote err = %v, want LeaseError with remaining time", err)
	}
}

func TestFollowDeposesPrimary(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	n := openBare(t, shcfg, t.TempDir(), func(c *Config) { c.Primary = true })
	if err := n.Write(0, oracle.Fill(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := n.Follow(2, "127.0.0.1:2"); err != nil {
		t.Fatal(err)
	}
	ri := n.Route()
	if ri.Role != RoleReplica || ri.Epoch != 2 || ri.Leader != "127.0.0.1:2" {
		t.Fatalf("route after depose = %+v", ri)
	}
	if !wire.IsMoved(n.Write(0, oracle.Fill(0, 2))) {
		t.Fatal("deposed primary still accepts writes")
	}
	n.mu.Lock()
	bootstrap := n.bootstrap
	n.mu.Unlock()
	if !bootstrap {
		t.Fatal("deposed primary must rejoin via snapshot bootstrap")
	}
	// A stale Follow cannot drag it back.
	if err := n.Follow(1, "127.0.0.1:3"); !wire.IsMoved(err) {
		t.Fatalf("stale follow answered %v, want moved", err)
	}
}

func TestMetaPersistsDeposedEpoch(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	dir := t.TempDir()
	n := openBare(t, shcfg, dir, func(c *Config) { c.Primary = true })
	if _, err := n.Replicate(&wire.ReplicateRequest{Epoch: 7, Node: "x", Marks: []uint64{0, 0}}); !wire.IsMoved(err) {
		t.Fatal("fencing poll must answer moved")
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	// Restarted with its old primary flags, the node must come back
	// fenced at the epoch that deposed it — not leading at epoch 1.
	re, err := Open(shcfg, durable.Config{Dir: dir, Sync: durable.SyncAlways}, func() Config {
		c := tuned("127.0.0.1:9")
		c.Primary = true
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ri := re.Route()
	if ri.Role == RolePrimary || ri.Epoch != 7 {
		t.Fatalf("restarted deposed primary came back as %s at epoch %d", ri.Role, ri.Epoch)
	}
}

func TestPromoteIdempotent(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	n := openBare(t, shcfg, t.TempDir(), func(c *Config) {
		c.Leader = "127.0.0.1:1"
		c.Lease = time.Nanosecond
	})
	time.Sleep(time.Millisecond)
	if _, err := n.Promote(2, []uint64{0, 0}); err != nil {
		t.Fatal(err)
	}
	ri, err := n.Promote(2, []uint64{0, 0})
	if err != nil {
		t.Fatalf("re-sent promote: %v", err)
	}
	if ri.Role != RolePrimary || ri.Epoch != 2 {
		t.Fatalf("route = %+v", ri)
	}
	if err := n.Write(0, oracle.Fill(0, 1)); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
}

// TestServerRefusesClusterOpsWithoutCluster: the four control ops answer
// a plain error on a non-cluster server instead of hanging or panicking.
func TestServerRefusesClusterOpsWithoutCluster(t *testing.T) {
	shcfg := testShardCfg(t, 1, 1<<12)
	sh, err := shard.New(shcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(sh, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ctx, ln) }()
	defer func() { cancel(); <-done }()

	cl, err := wire.Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Route(); err == nil {
		t.Fatal("route on non-cluster server succeeded")
	} else if wire.IsMoved(err) || wire.IsShed(err) {
		t.Fatalf("route err misclassified: %v", err)
	}
	var re *wire.RemoteError
	if _, err := cl.Replicate(&wire.ReplicateRequest{Epoch: 1, Marks: []uint64{0}}); !errors.As(err, &re) {
		t.Fatalf("replicate err = %v, want RemoteError", err)
	}
}

// TestRetiredOpcodesAreUnknown: the three retired opcodes — 0x12, which was
// OpMigrate, 0x05, which was OpSnapshot, and 0x09, which was OpObs — are
// unknown opcodes to a primary. A Cutover frame in their last layout, at the primary's own epoch
// and naming an address nobody serves, neither changes the node's route nor
// points the shard's writers anywhere: the next write to that shard
// acknowledges on the primary.
func TestRetiredOpcodesAreUnknown(t *testing.T) {
	const (
		opMigrate  = 0x12 // retired OpMigrate
		opSnapshot = 0x05 // retired OpSnapshot
		opObs      = 0x09 // retired OpObs
		cutover    = 4    // OpMigrate's Cutover phase
		bogus      = "127.0.0.1:1"
	)
	shcfg := testShardCfg(t, 2, 1<<13)
	p := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Primary = true })
	before := p.node.Route()

	// | u8 phase | u64 epoch | u32 shard | u16 nodeLen | node | u16 donorLen |
	cut := []byte{cutover}
	cut = binary.BigEndian.AppendUint64(cut, before.Epoch)
	cut = binary.BigEndian.AppendUint32(cut, 0)
	cut = binary.BigEndian.AppendUint16(cut, uint16(len(bogus)))
	cut = append(cut, bogus...)
	cut = binary.BigEndian.AppendUint16(cut, 0)

	conn, err := net.DialTimeout("tcp", p.addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		op      byte
		payload []byte
	}{{opMigrate, cut}, {opSnapshot, nil}, {opObs, nil}} {
		if err := wire.WriteFrame(conn, f.op, f.payload); err != nil {
			t.Fatal(err)
		}
		status, body, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		var re *wire.RemoteError
		if err := wire.DecodeError(status, body); !errors.As(err, &re) || !strings.Contains(re.Msg, fmt.Sprintf("unknown opcode %#x", f.op)) {
			t.Fatalf("opcode %#x answered status %#x (%d bytes), want a remote error naming the unknown opcode", f.op, status, len(body))
		}
	}

	after := p.node.Route()
	if after.Role != before.Role || after.Epoch != before.Epoch || after.Leader != before.Leader {
		t.Fatalf("route moved from %s/%d/%s to %s/%d/%s", before.Role, before.Epoch, before.Leader, after.Role, after.Epoch, after.Leader)
	}
	cl, err := wire.Dial(p.addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Write(0, oracle.Fill(0, 1)); err != nil {
		t.Fatalf("write to shard 0 after the retired cutover: %v", err)
	}
}

// TestAckUnblocksOnPoll: a write blocked on replication cover completes
// the moment a follower's poll advances its marks past the LSN.
func TestAckUnblocksOnPoll(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	n := openBare(t, shcfg, t.TempDir(), func(c *Config) {
		c.Primary = true
		c.AckReplicas = 1
	})
	wrote := make(chan error, 1)
	go func() { wrote <- n.Write(0, oracle.Fill(0, 1)) }()

	// Pump the follower protocol by hand until the write acks.
	marks := make([]uint64, 2)
	deadline := time.Now().Add(3 * time.Second)
	for {
		select {
		case err := <-wrote:
			if err != nil {
				t.Fatalf("acked write: %v", err)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("write never acked despite follower polls")
		}
		resp, err := n.Replicate(&wire.ReplicateRequest{Epoch: 1, Node: "follower", Marks: marks})
		if err != nil {
			t.Fatal(err)
		}
		// The simulated follower is perfectly caught up to whatever the
		// primary has durable.
		copy(marks, resp.Marks)
	}
}

func ExampleNode_Route() {
	// Route output is JSON over the wire; shown here for shape only.
	fmt.Println("epoch, self, role, leader, nodes, marks, lease_remaining_ms")
	// Output: epoch, self, role, leader, nodes, marks, lease_remaining_ms
}
