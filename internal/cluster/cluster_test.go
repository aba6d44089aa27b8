package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/server"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wal"
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
		Self:      self,
		Lease:     150 * time.Millisecond,
		PollWait:  30 * time.Millisecond,
		PollRetry: 5 * time.Millisecond,
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
	srv := server.New(n, server.Config{Timeout: 2 * time.Second})
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

	// The primary's route map names both pollers.
	if ri := p.node.Route(); ri.Role != RolePrimary || ri.Leader != p.addr || len(ri.Nodes) != 3 {
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
	// Nobody polls the primary before its checkpoint, so it keeps no tail of
	// the writes before it, and the checkpoint truncated the segment that
	// held them: only a snapshot can serve a zero cursor.
	p := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Primary = true })

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
	})
	n.ackTimeout = 50 * time.Millisecond
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

// TestCodecsAreSharedPerEpoch: polls answered and applied at once share each
// shard's codec for their epoch, and the epoch moving back and forth under
// them still seals every batch under its own epoch's key — a record sealed at
// one epoch opens at it and fails authentication at the next.
func TestCodecsAreSharedPerEpoch(t *testing.T) {
	n := openBare(t, testShardCfg(t, 2, 1<<13), t.TempDir(), func(c *Config) { c.Primary = true })
	rec := wal.Record{Kind: wal.KindWrite, LSN: 1, Line: oracle.Fill(0, 1)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				epoch, shard := uint64(1+(g+i)%3), (g+i)%2
				seal, err := n.codec(epoch, shard)
				if err != nil {
					t.Error(err)
					return
				}
				batch, err := seal.AppendRecord(nil, rec)
				if err != nil {
					t.Error(err)
					return
				}
				for _, open := range []struct {
					epoch uint64
					ok    bool
				}{{epoch, true}, {epoch + 1, false}} {
					c, err := n.codec(open.epoch, shard)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := c.DecodeAll(batch, 1, func(wal.Record) error { return nil }); (err == nil) != open.ok {
						t.Errorf("a batch sealed at epoch %d opened at %d: %v", epoch, open.epoch, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if a, _ := n.codec(7, 1); a == nil {
		t.Fatal("no codec at epoch 7")
	} else if b, _ := n.codec(7, 1); a != b {
		t.Fatal("two polls at one epoch built two codecs")
	}
}

func TestHigherEpochPollFences(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	n := openBare(t, shcfg, t.TempDir(), func(c *Config) { c.Primary = true })
	_, err := n.Replicate(&wire.ReplicateRequest{Epoch: 5, Node: "x", Marks: []uint64{0, 0}, CWRecords: true, PagedBootstrap: true})
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
	// A primary restarted at the epoch its cluster.META holds.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, metaFile), []byte(`{"epoch":5,"role":"primary"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	n := openBare(t, shcfg, dir, func(c *Config) { c.Primary = true })
	_, err := n.Replicate(&wire.ReplicateRequest{Epoch: 1, Node: "x", Marks: []uint64{0, 0}, CWRecords: true, PagedBootstrap: true})
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
	if _, err := n.Replicate(&wire.ReplicateRequest{Epoch: 7, Node: "x", Marks: []uint64{0, 0}, CWRecords: true, PagedBootstrap: true}); !wire.IsMoved(err) {
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

// TestServerRefusesClusterOpsWithoutCluster: REPLICATE answers a plain
// error on a non-cluster server instead of hanging or panicking.
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
	var re *wire.RemoteError
	if _, err := cl.Replicate(&wire.ReplicateRequest{Epoch: 1, Marks: []uint64{0}}); !errors.As(err, &re) || wire.IsMoved(err) || wire.IsShed(err) {
		t.Fatalf("replicate err = %v, want RemoteError", err)
	}
}

// TestRetiredOpcodesAreUnknown: the seven retired opcodes — 0x12, which was
// OpMigrate, 0x05, which was OpSnapshot, 0x09, which was OpObs, 0x10, which
// was OpPromote, 0x11, which was OpFollow, 0x0F, which was OpRoute, and 0x07,
// which was OpCheckpoint — are unknown opcodes to a primary. Each frame is in
// its op's last layout, aimed at the primary itself: a Cutover at its own
// epoch naming an address nobody serves, a PROMOTE and a FOLLOW (to that
// address) at the next epoch, an empty ROUTE, an empty CHECKPOINT. None
// changes the node's route, cuts a checkpoint or points the shard's writers
// anywhere: the next write to shard 0 acknowledges on the primary.
func TestRetiredOpcodesAreUnknown(t *testing.T) {
	const (
		opMigrate  = 0x12 // retired OpMigrate
		opSnapshot = 0x05 // retired OpSnapshot
		opObs      = 0x09 // retired OpObs
		opPromote  = 0x10 // retired OpPromote
		opFollow   = 0x11 // retired OpFollow
		opRoute    = 0x0F // retired OpRoute
		opCkpt     = 0x07 // retired OpCheckpoint
		cutover    = 4    // OpMigrate's Cutover phase
		bogus      = "127.0.0.1:1"
	)
	shcfg := testShardCfg(t, 2, 1<<13)
	p := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Primary = true })
	before, ckpts := p.node.Route(), p.node.Durability().Checkpoints

	// | u8 phase | u64 epoch | u32 shard | u16 nodeLen | node | u16 donorLen |
	cut := []byte{cutover}
	cut = binary.BigEndian.AppendUint64(cut, before.Epoch)
	cut = binary.BigEndian.AppendUint32(cut, 0)
	cut = binary.BigEndian.AppendUint16(cut, uint16(len(bogus)))
	cut = append(cut, bogus...)
	cut = binary.BigEndian.AppendUint16(cut, 0)

	// | u64 newEpoch | u32 nshards | u64 minMarks… |
	promote := binary.BigEndian.AppendUint64(nil, before.Epoch+1)
	promote = binary.BigEndian.AppendUint32(promote, uint32(len(before.Marks)))
	for _, m := range before.Marks {
		promote = binary.BigEndian.AppendUint64(promote, m)
	}

	// | u64 epoch | u16 leaderLen | leader |
	follow := binary.BigEndian.AppendUint64(nil, before.Epoch+1)
	follow = binary.BigEndian.AppendUint16(follow, uint16(len(bogus)))
	follow = append(follow, bogus...)

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
	}{{opMigrate, cut}, {opSnapshot, nil}, {opObs, nil}, {opPromote, promote}, {opFollow, follow}, {opRoute, nil}, {opCkpt, nil}} {
		if err := wire.WriteFrame(conn, f.op, f.payload); err != nil {
			t.Fatal(err)
		}
		status, body, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		var re *wire.RemoteError
		if err := wire.DecodeError(status, body); !errors.As(err, &re) || !strings.Contains(re.Msg, fmt.Sprintf("unknown opcode %#x", f.op)) {
			t.Errorf("opcode %#x answered status %#x (%d bytes), want a remote error naming the unknown opcode", f.op, status, len(body))
		}
	}

	after := p.node.Route()
	if after.Role != before.Role || after.Epoch != before.Epoch || after.Leader != before.Leader {
		t.Fatalf("route moved from %s/%d/%s to %s/%d/%s", before.Role, before.Epoch, before.Leader, after.Role, after.Epoch, after.Leader)
	}
	if got := p.node.Durability().Checkpoints; got != ckpts {
		t.Fatalf("checkpoints went from %d to %d", ckpts, got)
	}
	cl, err := wire.Dial(p.addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Write(0, oracle.Fill(0, 1)); err != nil {
		t.Fatalf("write to shard 0 after the retired opcodes: %v", err)
	}
}

// TestUnboundPollCannotFence: a poll from a connection that no peer binding
// vouches for must not move a primary's epoch. One well-formed REPLICATE at
// epoch 2^64-1 over a raw connection is refused, and leaves the primary
// leading at its own epoch and its cluster.META byte for byte as it was.
func TestUnboundPollCannotFence(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	dcfg := testDCfg(t)
	p := startNode(t, shcfg, dcfg, func(c *Config) { c.Primary = true })
	before := p.node.Route()
	metaPath := filepath.Join(dcfg.Dir, metaFile)
	metaBefore, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}

	poll, err := wire.EncodeReplicateRequest(&wire.ReplicateRequest{Epoch: math.MaxUint64, Node: "127.0.0.1:1", Marks: before.Marks, CWRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", p.addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.OpReplicate, poll); err != nil {
		t.Fatal(err)
	}
	if status, body, err := wire.ReadFrame(conn); err != nil {
		t.Fatal(err)
	} else if status != wire.StatusError {
		t.Errorf("an unbound poll answered status %#x (%q), want a refusal", status, body)
	}

	if after := p.node.Route(); after.Role != RolePrimary || after.Epoch != before.Epoch {
		t.Errorf("an unbound poll moved the primary from %s/%d to %s/%d", before.Role, before.Epoch, after.Role, after.Epoch)
	}
	metaAfter, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(metaAfter, metaBefore) {
		t.Errorf("an unbound poll rewrote %s: %s, was %s", metaFile, metaAfter, metaBefore)
	}
}

// TestKeylessLeaderCannotFence: a follower's Leader is a bare listener that
// holds no key. It binds the follower's peer HELLO and answers its poll with
// MOVED at epoch 2^62, naming the real primary as leader. None of that is
// authenticated, so none of it may move anything: the follower's epoch, its
// cluster.META and its lease stay as they were, and the primary still leads.
func TestKeylessLeaderCannotFence(t *testing.T) {
	t.Skip("ROADMAP 22: a listener with no key fences the cluster")
	shcfg := testShardCfg(t, 2, 1<<13)
	p := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Primary = true })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	movedStatus, movedBody := wire.EncodeError(&wire.MovedError{Epoch: 1 << 62, Leader: p.addr})
	// No poll is answered until the follower's state before it is read.
	release, polled := make(chan struct{}), make(chan struct{})
	var once sync.Once
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					op, _, err := wire.ReadFrame(conn)
					if err != nil {
						return
					}
					status, body := wire.StatusOK, []byte(nil)
					if op == wire.OpReplicate {
						<-release
						status, body = movedStatus, movedBody
					}
					if err := wire.WriteFrame(conn, status, body); err != nil {
						return
					}
					if op == wire.OpReplicate {
						once.Do(func() { close(polled) })
					}
				}
			}()
		}
	}()

	dcfg := testDCfg(t)
	f := startNode(t, shcfg, dcfg, func(c *Config) { c.Leader = ln.Addr().String() })
	epochBefore := f.node.Route().Epoch
	f.node.mu.Lock()
	contactBefore := f.node.lastContact
	f.node.mu.Unlock()
	metaPath := filepath.Join(dcfg.Dir, metaFile)
	metaBefore, err := os.ReadFile(metaPath)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	close(release)

	select {
	case <-polled:
	case <-time.After(5 * time.Second):
		t.Fatal("the follower never polled the listener")
	}
	time.Sleep(200 * time.Millisecond) // many polls' time to act on the answer

	if epoch := f.node.Route().Epoch; epoch != epochBefore {
		t.Errorf("the follower's epoch moved %d -> %d on an unauthenticated MOVED", epochBefore, epoch)
	}
	metaAfter, err := os.ReadFile(metaPath)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if !bytes.Equal(metaAfter, metaBefore) {
		t.Errorf("an unauthenticated MOVED rewrote %s: %s, was %s", metaFile, metaAfter, metaBefore)
	}
	f.node.mu.Lock()
	contactAfter := f.node.lastContact
	f.node.mu.Unlock()
	if !contactAfter.Equal(contactBefore) {
		t.Errorf("the follower's lease was refreshed after an unauthenticated answer")
	}
	if ri := p.node.Route(); ri.Role != RolePrimary {
		t.Errorf("the primary is %s at epoch %d after the follower acted on the listener's MOVED, want %s", ri.Role, ri.Epoch, RolePrimary)
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
		resp, err := n.Replicate(&wire.ReplicateRequest{Epoch: 1, Node: "follower", Marks: marks, CWRecords: true, PagedBootstrap: true})
		if err != nil {
			t.Fatal(err)
		}
		// The simulated follower is perfectly caught up to whatever the
		// primary has durable.
		copy(marks, resp.Marks)
	}
}

func ExampleNode_Route() {
	// Route's JSON, as morphserve's admin /clusterz serves it; shown here
	// for shape only.
	fmt.Println("epoch, self, role, leader, nodes, marks, lease_remaining_ms")
	// Output: epoch, self, role, leader, nodes, marks, lease_remaining_ms
}

// TestPollOfAnOlderRecordGenerationIsRefused: a poll that does not say it
// reads WAL records sealed by the line MAC — no poll of a build before them
// does — is refused with a *secmem.VersionError naming the older write kind,
// and one that reads them but does not say it bootstraps from base pages — a
// build that takes a bootstrap as one whole-stream answer — with one naming
// that bootstrap, before anything else is looked at: at a higher epoch
// neither fences anything, the poller joins no ack table, and nothing is
// sealed or read for it to misread. Over a bound peer connection the refusal
// arrives as its text, never as an integrity error.
func TestPollOfAnOlderRecordGenerationIsRefused(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	p := startNode(t, shcfg, testDCfg(t), func(c *Config) { c.Primary = true })
	cl, err := wire.Dial(p.addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := uint64(0); i < 8; i++ {
		if err := cl.Write(i*secmem.LineBytes, oracle.Fill(i*secmem.LineBytes, i)); err != nil {
			t.Fatal(err)
		}
	}
	var ve *secmem.VersionError
	var ie *secmem.IntegrityError
	for _, epoch := range []uint64{1, 9} {
		resp, err := p.node.Replicate(&wire.ReplicateRequest{Epoch: epoch, Node: "old:1", Marks: []uint64{0, 0}})
		if resp != nil || !errors.As(err, &ve) || ve.Version != 0x01 || ve.WantVersion != uint64(wal.KindWrite) || errors.As(err, &ie) {
			t.Fatalf("epoch-%d poll without CWRecords: %+v, %v; want a *secmem.VersionError naming kind 0x01", epoch, resp, err)
		}
		for _, boot := range []bool{false, true} {
			resp, err = p.node.Replicate(&wire.ReplicateRequest{Epoch: epoch, Node: "whole:1", Marks: []uint64{0, 0}, Bootstrap: boot, CWRecords: true})
			if resp != nil || !errors.As(err, &ve) || ve.Magic != "bootstrap" || ve.Version != 1 || ve.WantVersion != 2 || errors.As(err, &ie) {
				t.Fatalf("epoch-%d poll without PagedBootstrap (Bootstrap %v): %+v, %v; want a *secmem.VersionError naming the whole-stream bootstrap", epoch, boot, resp, err)
			}
		}
	}
	peer, err := p.node.dialPeer(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	resp, err := peer.Replicate(&wire.ReplicateRequest{Epoch: 1, Node: "old:1", Marks: []uint64{0, 0}})
	var re *wire.RemoteError
	if resp != nil || !errors.As(err, &re) || !strings.Contains(err.Error(), `"wal frame" version 1`) || errors.As(err, &ie) {
		t.Fatalf("a peer's poll without CWRecords answered %+v, %v; want the version refusal", resp, err)
	}
	resp, err = peer.Replicate(&wire.ReplicateRequest{Epoch: 9, Node: "whole:1", Marks: []uint64{0, 0}, Bootstrap: true, CWRecords: true})
	if resp != nil || !errors.As(err, &re) || !strings.Contains(err.Error(), `"bootstrap" version 1`) || errors.As(err, &ie) {
		t.Fatalf("a peer's poll without PagedBootstrap answered %+v, %v; want the version refusal", resp, err)
	}
	if ri := p.node.Route(); ri.Role != RolePrimary || ri.Epoch != 1 || len(ri.Nodes) != 1 {
		t.Fatalf("primary after refused polls: %+v, want the only node, primary at epoch 1", ri)
	}
	// The same poll with both bits is served: the refusals were the bits'.
	if resp, err := peer.Replicate(&wire.ReplicateRequest{Epoch: 1, Node: "new:1", Marks: []uint64{0, 0}, CWRecords: true, PagedBootstrap: true}); err != nil || len(resp.Batches[0])+len(resp.Batches[1]) != 8*wal.WriteFrameBytes {
		t.Fatalf("the poll with CWRecords and PagedBootstrap: %+v, %v; want both shards' eight records", resp, err)
	}
}
