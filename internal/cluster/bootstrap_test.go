package cluster

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/tenant"
	"github.com/securemem/morphtree/internal/wal"
	"github.com/securemem/morphtree/internal/wire"
)

// openUnserved opens a node over a SyncNone store in a fresh directory,
// serving nothing: the tests below drive its polls by hand.
func openUnserved(t *testing.T, shcfg shard.Config, mutate func(*Config)) *Node {
	t.Helper()
	cfg := tuned("127.0.0.1:9")
	mutate(&cfg)
	n, err := Open(shcfg, durable.Config{Dir: t.TempDir(), Sync: durable.SyncNone}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// writeAll writes every line of p's store once, through its history.
func writeAll(t *testing.T, p *Node, h *oracle.History, memBytes uint64) {
	t.Helper()
	for addr := uint64(0); addr < memBytes; addr += secmem.LineBytes {
		seq, line := h.Invoke(addr)
		err := p.Write(addr, line)
		h.Settle(addr, seq, err)
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBootstrapRestartsOnANewBase: a replica bootstraps from its primary's
// base snapshot a page per poll, and a full checkpoint on the primary after
// two pages replaces that base under it. The next page is offset 0 of the
// new base, so the replica starts its spool over — one restart — installs
// once, streams the writes past the base, and reads every line back as the
// history says.
func TestBootstrapRestartsOnANewBase(t *testing.T) {
	const memBytes = 4 << 20
	shcfg := testShardCfg(t, 2, memBytes)
	p := openUnserved(t, shcfg, func(c *Config) { c.Primary = true })
	reg := obs.NewRegistry()
	r := openUnserved(t, shcfg, func(c *Config) {
		c.Leader = "127.0.0.1:9"
		c.Obs = reg
	})
	r.Halt() // no puller: the test is the replica's only poller
	r.RegisterMetrics(reg)

	h := oracle.New(oracle.Zeros)
	writeAll(t, p, h, memBytes)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	poll := func() *wire.ReplicateResponse {
		t.Helper()
		req, mem := r.pollRequest()
		resp, err := p.Replicate(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.applyResponse(mem, req.Epoch, req.Marks, resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := poll().Page
	if first == nil || first.Offset != 0 || first.Size <= 3*wire.PageBytes {
		t.Fatalf("a cold replica's first poll answered page %+v, want offset 0 of a base of over three pages", first)
	}
	if pg := poll().Page; pg == nil || pg.Seq != first.Seq || pg.Offset != wire.PageBytes {
		t.Fatalf("second page %+v, want offset %d of base %d", pg, wire.PageBytes, first.Seq)
	}

	for addr := uint64(0); addr < 64*secmem.LineBytes; addr += secmem.LineBytes {
		seq, line := h.Invoke(addr)
		err := p.Write(addr, line)
		h.Settle(addr, seq, err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	again := poll().Page
	if again == nil || again.Seq == first.Seq || again.Offset != 0 {
		t.Fatalf("the page after a checkpoint: %+v, want offset 0 of a new base", again)
	}
	for addr := uint64(0); addr < 8*secmem.LineBytes; addr += secmem.LineBytes {
		seq, line := h.Invoke(addr)
		err := p.Write(addr, line)
		h.Settle(addr, seq, err)
	}
	if err := p.memory().Flush(); err != nil {
		t.Fatal(err)
	}
	want := p.memory().SyncedLSNs()
	for i := 0; !covers(r.memory().SyncedLSNs(), want); i++ {
		if i > 64 {
			t.Fatalf("replica at %v after %d polls, primary at %v", r.memory().SyncedLSNs(), i, want)
		}
		poll()
	}
	c := reg.Snapshot().Counters
	if c["cluster.bootstrap.restarts"] != 1 || c["cluster.bootstraps"] != 1 {
		t.Fatalf("restarts %d, bootstraps %d; want 1 and 1", c["cluster.bootstrap.restarts"], c["cluster.bootstraps"])
	}
	if pages := 2 + (again.Size+wire.PageBytes-1)/wire.PageBytes; c["cluster.bootstrap.pages"] != pages || c["cluster.bootstrap.bytes"] != 2*wire.PageBytes+again.Size {
		t.Fatalf("%d pages, %d bytes spooled; want two pages of the first base and all %d of the second, %d pages", c["cluster.bootstrap.pages"], c["cluster.bootstrap.bytes"], again.Size, pages)
	}
	if tally := h.Audit(r.memory().Read); tally.Bad() != 0 || tally.Verified != memBytes/secmem.LineBytes {
		t.Fatalf("replica audit: %v", tally)
	}
	if err := r.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestBootstrapLargeStore: a fresh replica of a 2-shard 64 MiB primary with
// every line written bootstraps over loopback — its base snapshot is larger
// than any frame may be, so it crosses as pages — covers the primary's marks
// and reads every line back as written.
func TestBootstrapLargeStore(t *testing.T) {
	if testing.Short() {
		t.Skip("writes, ships and reads back a 64 MiB store")
	}
	const memBytes = 64 << 20
	shcfg := testShardCfg(t, 2, memBytes)
	pd := durable.Config{Dir: t.TempDir(), Sync: durable.SyncNone}
	p := startNode(t, shcfg, pd, func(c *Config) { c.Primary = true })
	for addr := uint64(0); addr < memBytes; addr += secmem.LineBytes {
		if err := p.node.Write(addr, oracle.Fill(addr, 1)); err != nil {
			t.Fatal(err)
		}
	}
	ckptStart := time.Now()
	if err := p.node.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckptTook := time.Since(ckptStart)
	st, err := os.Stat(durable.SnapshotPath(pd.Dir, p.node.memory().Seq()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() <= wire.MaxBody {
		t.Fatalf("the base snapshot is %d bytes, not over MaxBody (%d)", st.Size(), wire.MaxBody)
	}

	start := time.Now()
	reg := obs.NewRegistry()
	a := startNode(t, shcfg, durable.Config{Dir: t.TempDir(), Sync: durable.SyncNone}, func(c *Config) {
		c.Leader = p.addr
		c.Obs = reg
	})
	a.node.RegisterMetrics(reg)
	want := p.node.memory().SyncedLSNs()
	for !covers(a.node.memory().SyncedLSNs(), want) {
		if time.Since(start) > 2*time.Minute {
			t.Fatalf("replica at %v after %v, primary at %v", a.node.memory().SyncedLSNs(), time.Since(start), want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	c := reg.Snapshot().Counters
	pages := (uint64(st.Size()) + wire.PageBytes - 1) / wire.PageBytes
	if c["cluster.bootstraps"] != 1 || c["cluster.bootstrap.pages"] != pages || c["cluster.bootstrap.bytes"] != uint64(st.Size()) {
		t.Fatalf("%d bootstraps of %d pages, %d bytes; want 1 of %d pages, %d bytes", c["cluster.bootstraps"], c["cluster.bootstrap.pages"], c["cluster.bootstrap.bytes"], pages, st.Size())
	}
	t.Logf("the full checkpoint took %v; its %d-byte base crossed in %d pages, and the replica covered the primary %v after it started", ckptTook, st.Size(), pages, time.Since(start))
	mem := a.node.memory()
	for addr := uint64(0); addr < memBytes; addr += secmem.LineBytes {
		got, err := mem.Read(addr)
		if err != nil || !bytes.Equal(got, oracle.Fill(addr, 1)) {
			t.Fatalf("replica line %#x: %v", addr, err)
		}
	}
}

// TestBatchAnswerStaysInBudget: a primary with so many shards that every
// shard lagging by batchRecords would not fit in a frame answers a poll from
// zero marks with batchLimit records from every shard — none starves — and
// the answer fits in a frame.
func TestBatchAnswerStaysInBudget(t *testing.T) {
	const shards, perShard = 384, batchRecords
	if shards*perShard*wal.WriteFrameBytes <= wire.MaxBody {
		t.Fatalf("%d shards of %d records fit in a frame: the test shows nothing", shards, perShard)
	}
	const memBytes = shards * perShard * secmem.LineBytes
	p := openUnserved(t, testShardCfg(t, shards, memBytes), func(c *Config) { c.Primary = true })
	writeAll(t, p, oracle.New(oracle.Zeros), memBytes)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := p.Replicate(&wire.ReplicateRequest{Epoch: 1, Node: "r:1", Marks: make([]uint64, shards), CWRecords: true, PagedBootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	limit := batchLimit(shards)
	for i, b := range resp.Batches {
		if len(b) != limit*wal.WriteFrameBytes {
			t.Fatalf("shard %d's batch holds %d bytes, want %d records of %d", i, len(b), limit, wal.WriteFrameBytes)
		}
	}
	body, err := wire.EncodeReplicateResponse(resp)
	if err != nil || len(body)+1 > wire.MaxBody || limit >= perShard {
		t.Fatalf("the answer is %d bytes (%v), %d records a shard; want at most %d bytes, fewer than %d a shard", len(body), err, limit, wire.MaxBody, perShard)
	}
}

// TestAnswerWithTooManyBatchesIsRefused: an answer that carries a batch for a
// shard the follower does not have is refused with an error; it does not
// panic the follower's puller.
func TestAnswerWithTooManyBatchesIsRefused(t *testing.T) {
	r := openUnserved(t, testShardCfg(t, 2, 2*4096), func(c *Config) { c.Leader = "127.0.0.1:9" })
	r.Halt()
	req, mem := r.pollRequest()
	resp := &wire.ReplicateResponse{Epoch: req.Epoch, Marks: make([]uint64, 3), Batches: [][]byte{nil, nil, make([]byte, wal.WriteFrameBytes)}}
	if _, err := r.applyResponse(mem, req.Epoch, req.Marks, resp); err == nil {
		t.Fatal("a 2-shard follower applied an answer of 3 shard batches")
	}
}

// TestMaxBodyCoversEveryFrame: every frame an encoder makes fits under
// wire.MaxBody at the worst its named constants allow — the largest one with
// less than half of it to spare, so the cap is no looser than it must be. A
// bootstrap page, a batch answer at any shard count, a PROOF at
// proof.MaxShards, a ROOT_RANGE of proof.MaxRangeEntries entries (each
// signed with Ed25519, the authority's one scheme), the largest poll and the
// client's requests.
func TestMaxBodyCoversEveryFrame(t *testing.T) {
	marks := make([]uint64, wire.MaxClusterShards)
	frames := map[string][]byte{}
	add := func(name string, body []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		frames[name] = body
	}

	body, err := wire.EncodeReplicateResponse(&wire.ReplicateResponse{Marks: marks,
		Page: &wire.BasePage{Size: wire.PageBytes, Data: make([]byte, wire.PageBytes)}})
	add("bootstrap page", body, err)
	for _, n := range []int{1, 2, batchBudget / (batchRecords * wal.WriteFrameBytes), 1350, batchBudget / wal.WriteFrameBytes, wire.MaxClusterShards} {
		batch := make([]byte, batchLimit(n)*wal.WriteFrameBytes)
		batches := make([][]byte, n)
		for i := range batches {
			batches[i] = batch
		}
		body, err := wire.EncodeReplicateResponse(&wire.ReplicateResponse{Marks: make([]uint64, n), Batches: batches})
		add(fmt.Sprintf("batch answer over %d shards", n), body, err)
	}
	line := make([]byte, proof.LineBytes)
	chain := make([][]byte, proof.MaxChainLines)
	for i := range chain {
		chain[i] = line
	}
	pr := &proof.Proof{Shards: proof.MaxShards, Line: line, Chain: chain, Root: line,
		ShardRoots: make([]proof.Digest, proof.MaxShards), Attestation: make([]byte, proof.MaxSigBytes)}
	body, err = pr.Encode(nil)
	add("PROOF", body, err)
	entries := make([]proof.Entry, proof.MaxRangeEntries)
	for i := range entries {
		entries[i].Sig = make([]byte, ed25519.SignatureSize)
	}
	rr := &proof.RangeResult{Entries: entries, Proof: make([]proof.Digest, proof.MaxProofDigests)}
	body, err = rr.Encode(nil)
	add("ROOT_RANGE", body, err)
	sig := make([]byte, proof.MaxSigBytes)
	ri := &proof.RootInfo{Pub: make([]byte, ed25519.PublicKeySize), Head: proof.SignedHead{Sig: sig}, Latest: &proof.Entry{Sig: sig}}
	body, err = ri.Encode(nil)
	add("ROOT", body, err)
	body, err = wire.EncodeReplicateRequest(&wire.ReplicateRequest{Node: string(make([]byte, 1024)), Marks: marks,
		Tenants: make([]byte, 32), CWRecords: true, PagedBootstrap: true})
	add("REPLICATE poll", body, err)
	body, err = wire.AppendWrite(nil, 0, line)
	add("WRITE", body, err)
	body, err = wire.AppendHello(nil, string(bytes.Repeat([]byte{'t'}, 255)), [tenant.TokenLen]byte{})
	add("HELLO", body, err)

	largest, largestName := 0, ""
	for name, body := range frames {
		if len(body)+1 > wire.MaxBody {
			t.Errorf("%s: a %d-byte body does not fit under MaxBody (%d)", name, len(body)+1, wire.MaxBody)
		}
		if len(body)+1 > largest {
			largest, largestName = len(body)+1, name
		}
	}
	if largest <= wire.MaxBody/2 {
		t.Errorf("the largest frame, %s, is %d bytes: MaxBody (%d) could be half what it is", largestName, largest, wire.MaxBody)
	}
	t.Logf("largest frame: %s, %d bytes of %d", largestName, largest, wire.MaxBody)
}
