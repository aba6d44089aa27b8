// Package cluster turns a set of durable.Memory nodes into a replicated
// morphtree deployment: one primary journals and serves every write,
// followers pull its sealed WAL stream and apply it verbatim, and a
// fencing-epoch protocol hands leadership over without ever losing an
// acknowledged write.
//
// The design leans on two invariants the lower layers already provide:
//
//   - The WAL is a wire-safe replication format. Records are framed and
//     sealed under the line MAC, so a replication batch is just a run of
//     WAL frames re-sealed under an epoch-bound key — the follower's
//     decoder enforces integrity and LSN contiguity exactly as crash
//     recovery does.
//   - A follower journals the primary's records verbatim, so
//     its own recovered per-shard LSN vector IS its replication cursor.
//     A follower crash resumes streaming from whatever its local WAL
//     proves durable, with no separate cursor state to corrupt.
//
// Leadership is guarded by a monotonically increasing fencing epoch. A
// node that sees a higher epoch than its own steps down fenced; batch
// keys are derived from the epoch, so a deposed primary's stream is not
// even decodable as the new epoch's. Promotion is a Go call made by the
// process that embeds the nodes; no wire op promotes a node or points it
// at a leader. That process surveys survivors, computes the element-wise
// max durable vector, and calls one replica's Promote at epoch+1 and the
// others' Follow. The candidate refuses while its leader lease is
// unexpired, catches its tail up from donor peers, and only then assumes
// the role.
package cluster

import (
	"crypto/hmac"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/mac"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/tenant"
	"github.com/securemem/morphtree/internal/wal"
	"github.com/securemem/morphtree/internal/wire"
)

// Node roles. A fenced node saw a higher epoch than its own and refuses
// data ops until the control plane tells it whom to follow.
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
	RoleFenced  = "fenced"
)

// Config tunes one cluster node.
type Config struct {
	// Self is this node's advertised address (what peers dial).
	Self string
	// Peers lists the other cluster members' advertised addresses. Static
	// membership: promotion uses it to find donor replicas for catch-up.
	Peers []string
	// Primary starts this node as the leader (at epoch 1, or the epoch its
	// cluster.META holds); otherwise it starts as a replica following Leader.
	Primary bool
	// Leader is the address a replica starts pulling from.
	Leader string
	// Lease is how long a replica keeps trusting a silent leader. A
	// replica refuses promotion until Lease has elapsed since its last
	// successful poll, so a slow-but-alive primary is not usurped while
	// it can still ack writes (default 1s).
	Lease time.Duration
	// AckReplicas is how many followers' durable marks must cover a write
	// before the primary acknowledges it (semi-synchronous replication).
	// 0 acks on local durability alone.
	AckReplicas int
	// PollWait is how long the primary holds an empty replication poll
	// open waiting for new durable records (default 250ms).
	PollWait time.Duration
	// PollRetry is how long a follower waits after a failed poll before
	// retrying (default 50ms).
	PollRetry time.Duration
	// Logf, when set, observes role changes and replication errors.
	Logf func(format string, args ...any)
	// Obs, when non-nil, records cluster counters and the replication-lag
	// gauge (cluster.repl.lag, in records behind the leader), and traces
	// ReplBatch, Promote and Fence events.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Lease <= 0 {
		c.Lease = time.Second
	}
	if c.PollWait <= 0 {
		c.PollWait = 250 * time.Millisecond
	}
	if c.PollRetry <= 0 {
		c.PollRetry = 50 * time.Millisecond
	}
	return c
}

// Replication's fixed timings: how long a write waits for replication cover
// before failing with an AckTimeoutError, and the bound on a replication dial
// and each of its round trips.
const ackTimeout, dialTimeout = 2 * time.Second, 5 * time.Second

// batchRecords caps records per shard per replication response.
const batchRecords = 512

// Node is one cluster member. It implements server.Engine (plus the
// Durable, Prover, TenantRanger and ClusterNode optional surfaces) by
// delegating to its durable.Memory — except that data ops on a non-primary
// answer *wire.MovedError, the refused-before-execution redirect clients
// follow to the leader.
type Node struct {
	cfg   Config
	shcfg shard.Config
	dcfg  durable.Config
	// tenants is the digest of shcfg's tenant list (nil for none), what this
	// node's polls carry and what it holds every poll it answers to.
	tenants []byte

	cBatches    *obs.Counter
	cRecords    *obs.Counter
	cAckTimeout *obs.Counter
	cFences     *obs.Counter
	cPromotes   *obs.Counter
	cBootstraps *obs.Counter
	gLag        *obs.Gauge
	// Bootstrap pages and bytes spooled, and transfers started over
	// (RegisterMetrics' cluster.bootstrap.*).
	bootPages, bootBytes, bootRestarts atomic.Uint64

	mu          sync.Mutex
	mem         *durable.Memory
	role        string
	epoch       uint64
	leader      string // advertised leader address ("" when unknown)
	lastContact time.Time
	bootstrap   bool                // next poll must start a bootstrap
	spool       spool               // the bootstrap in progress; the puller's alone
	replicas    map[string][]uint64 // the ack table: each poller's durable marks
	ackCh       chan struct{}       // closed when replica marks advance
	pullCl      *wire.Client        // replica's connection to the leader
	pullAddr    string              // address pullCl is dialed to
	onCkpt      func(seq uint64)
	codecEpoch  uint64        // the epoch codecs seal and open under
	codecs      []*wal.Codec  // each shard's batch codec, built when first asked for
	ackTimeout  time.Duration // ackTimeout, shortened only by this package's tests

	stopc  chan struct{}
	wg     sync.WaitGroup
	closed bool
	halted bool
}

// spool is where a replica's bootstrap transfer stands: the leader's base
// snapshot it is spooling, that file's size, and the bytes spooled so far.
// The zero spool is no transfer.
type spool struct {
	seq, size, off uint64
}

// The node's durable cluster identity, its epoch and role, is kept in the
// data directory's cluster.META so a restart cannot resurrect a deposed
// primary at its old epoch: a state stream of one frame (ckpt.WriteSealed)
// under a key derived for it, whose body is
//
//	u64 epoch (little-endian) | u8 role (its index in roles)
const (
	metaFile    = "cluster.META"
	metaContext = "morphtree/ckpt/cluster.META"
)

var roles = [...]string{RolePrimary, RoleReplica, RoleFenced}

// appendMeta appends a cluster.META body.
func appendMeta(b []byte, epoch uint64, role string) []byte {
	return append(binary.LittleEndian.AppendUint64(b, epoch), byte(slices.Index(roles[:], role)))
}

// parseMeta decodes a cluster.META body. One appendMeta would not write is an
// *secmem.IntegrityError: it authenticated, so no build wrote it.
func parseMeta(body []byte) (epoch uint64, role string, err error) {
	if len(body) != 9 || int(body[8]) >= len(roles) {
		return 0, "", &secmem.IntegrityError{Level: -1, Reason: metaFile + " holds a malformed epoch and role"}
	}
	return binary.LittleEndian.Uint64(body), roles[body[8]], nil
}

func metaKey(master []byte) []byte { return mac.Derive(master, "morphtree/cluster/meta") }

// Open recovers (or creates) the node's durable state and starts its
// replication machinery.
func Open(shcfg shard.Config, dcfg durable.Config, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Config.Self is required")
	}
	if !cfg.Primary && cfg.Leader == "" {
		return nil, fmt.Errorf("cluster: replica needs Config.Leader")
	}
	// The persisted identity is read before the store is opened, so a
	// refused one (tampered, or the JSON of a build before) touches nothing.
	var epoch uint64
	var role string
	meta, err := ckpt.ReadSealed(filepath.Join(dcfg.Dir, metaFile), metaKey(shcfg.Mem.Key), metaContext)
	if err == nil && meta != nil {
		epoch, role, err = parseMeta(meta)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: read meta: %w", err)
	}
	mem, _, err := durable.Open(shcfg, dcfg)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:         cfg,
		shcfg:       shcfg,
		dcfg:        dcfg,
		tenants:     durable.TenantDigest(shcfg),
		cBatches:    cfg.Obs.Counter("cluster.repl.batches"),
		cRecords:    cfg.Obs.Counter("cluster.repl.records"),
		cAckTimeout: cfg.Obs.Counter("cluster.ack.timeouts"),
		cFences:     cfg.Obs.Counter("cluster.fences"),
		cPromotes:   cfg.Obs.Counter("cluster.promotes"),
		cBootstraps: cfg.Obs.Counter("cluster.bootstraps"),
		gLag:        cfg.Obs.Gauge("cluster.repl.lag"),
		mem:         mem,
		role:        RoleReplica,
		epoch:       1,
		leader:      cfg.Leader,
		lastContact: time.Now(),
		replicas:    map[string][]uint64{},
		ackTimeout:  ackTimeout,
		stopc:       make(chan struct{}),
	}
	if cfg.Primary {
		n.role = RolePrimary
		n.leader = cfg.Self
	}
	if meta != nil {
		// The persisted identity wins over the startup flags: a deposed
		// primary that crashed and restarted must not come back leading
		// at its old epoch.
		n.epoch = max(n.epoch, epoch)
		n.role = role
		if n.role != RolePrimary {
			n.leader = cfg.Leader
			// Its journal may carry a divergent unacked suffix; rejoin
			// from a snapshot.
			n.bootstrap = true
		}
	}
	if err := n.saveMetaLocked(); err != nil {
		_ = mem.Close()
		return nil, err
	}
	n.logf("cluster: %s open as %s (epoch %d, leader %s)", cfg.Self, n.role, n.epoch, n.leader)
	n.wg.Add(1)
	go n.puller() // from here on n's fields are read under n.mu
	return n, nil
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// saveMetaLocked persists the node's epoch and role (ckpt.WriteSealed, then
// the directory fsynced). Called with n.mu held (or before the node is
// shared).
func (n *Node) saveMetaLocked() error {
	path := filepath.Join(n.dcfg.Dir, metaFile)
	if err := ckpt.WriteSealed(path, metaKey(n.shcfg.Mem.Key), metaContext, appendMeta(nil, n.epoch, n.role)); err != nil {
		return fmt.Errorf("cluster: write meta: %w", err)
	}
	return wal.SyncDir(n.dcfg.Dir)
}

// Close stops replication and closes the durable memory.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	n.Halt()
	n.mu.Lock()
	mem := n.mem
	n.mu.Unlock()
	return mem.Close()
}

// Halt stops the puller and unblocks every in-flight ack wait without
// closing the store. A serving stack should Halt before draining its
// server — handlers blocked in waitAck exit promptly instead of riding
// out the ack timeout with no replica left to poll — and Close after the
// drain. Close implies Halt, and every call returns only once the puller has
// exited, so a Close that overlaps a Halt does not close the store under it.
func (n *Node) Halt() {
	n.mu.Lock()
	if !n.halted {
		n.halted = true
		close(n.stopc)
	}
	cl := n.pullCl
	n.pullCl = nil
	n.mu.Unlock()
	if cl != nil {
		_ = cl.Close()
	}
	n.wg.Wait()
}

// memory returns the current durable memory (swapped on snapshot
// bootstrap, so callers must not cache it across ops).
func (n *Node) memory() *durable.Memory {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mem
}

// movedLocked builds the redirect for a data op that landed on a
// non-primary. Called with n.mu held.
func (n *Node) movedLocked() error {
	leader := n.leader
	if leader == n.cfg.Self {
		// A fenced ex-primary must not advertise itself.
		leader = ""
	}
	return &wire.MovedError{Epoch: n.epoch, Leader: leader}
}

// replKey derives the sealing key for replication batches at one epoch
// and shard. Binding the epoch into the key is fencing in depth: a batch
// sealed by a deposed primary fails MAC verification at the new epoch
// before any record is applied.
func replKey(master []byte, epoch uint64, shardIdx int) []byte {
	return mac.Derive(master, fmt.Sprintf("morphtree/repl/%d/%d", epoch, shardIdx))
}

// peerSecret derives the key a peer HELLO is made under, the master key's
// "morphtree/cluster-control" domain: only a holder of the master key can
// bind as a peer, and only a bound peer's poll is read.
func peerSecret(master []byte) string {
	return string(mac.Derive(master, "morphtree/cluster-control"))
}

// AuthenticatePeer reports whether token is the one a cluster peer binds
// with, the HELLO token of tenant.PeerID under this node's peerSecret,
// compared in constant time. It is server.ClusterNode's peer check.
func (n *Node) AuthenticatePeer(token []byte) bool {
	want := tenant.HelloToken(peerSecret(n.shcfg.Mem.Key), tenant.PeerID)
	return hmac.Equal(token, want[:])
}

// dialPeer dials addr and binds the connection as a cluster peer, which a
// node requires before it reads a poll.
func (n *Node) dialPeer(addr string) (*wire.Client, error) {
	cl, err := wire.Dial(addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	if err := cl.Hello(tenant.PeerID, peerSecret(n.shcfg.Mem.Key)); err != nil {
		_ = cl.Close()
		return nil, err
	}
	return cl, nil
}

// codec returns the codec that seals and opens shard shardIdx's batches at
// epoch, built once for the latest epoch asked for and again when it moves. A
// codec is read-only once built, so concurrent polls share it.
func (n *Node) codec(epoch uint64, shardIdx int) (_ *wal.Codec, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.codecEpoch != epoch {
		n.codecs, n.codecEpoch = make([]*wal.Codec, n.shcfg.Shards), epoch
	}
	if n.codecs[shardIdx] == nil {
		n.codecs[shardIdx], err = wal.NewCodec(wal.Options{Key: replKey(n.shcfg.Mem.Key, epoch, shardIdx)})
	}
	return n.codecs[shardIdx], err
}

// --- server.Engine surface -------------------------------------------

// primary returns the memory and epoch a data op runs against, or the moved
// redirect when this node is not the primary: the primary is every shard's
// one writer, and the only node that serves data ops.
func (n *Node) primary() (*durable.Memory, uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != RolePrimary {
		return nil, 0, n.movedLocked()
	}
	return n.mem, n.epoch, nil
}

// Read serves a line read on the primary; elsewhere it answers the moved
// redirect.
func (n *Node) Read(addr uint64) ([]byte, error) { return n.AppendRead(nil, addr) }

// AppendRead is Read appended to dst (durable.Memory.AppendRead); a moved
// redirect, like any error, returns nil.
func (n *Node) AppendRead(dst []byte, addr uint64) ([]byte, error) {
	mem, _, err := n.primary()
	if err != nil {
		return nil, err
	}
	return mem.AppendRead(dst, addr)
}

// Write journals a line write on the primary and waits for the configured
// replication cover before acknowledging; elsewhere it answers the moved
// redirect.
func (n *Node) Write(addr uint64, line []byte) error {
	mem, epoch, err := n.primary()
	if err != nil {
		return err
	}
	shardIdx, lsn, err := mem.WriteLSN(addr, line)
	if err != nil {
		return err
	}
	return n.waitAck(epoch, shardIdx, lsn)
}

// VerifyAll re-verifies every written line against the local integrity
// tree. Served by every role: auditing a replica is how the harness
// proves replicated state honest.
func (n *Node) VerifyAll() error { return n.memory().VerifyAll() }

// Stats returns the local engine stats (any role).
func (n *Node) Stats() secmem.Stats { return n.memory().Stats() }

// FlipDataBit is the adversary interface (tamper testing); served by the
// primary, refused (false) elsewhere.
func (n *Node) FlipDataBit(addr uint64, byteOff int, bit uint) bool {
	mem, _, err := n.primary()
	if err != nil {
		return false
	}
	return mem.FlipDataBit(addr, byteOff, bit)
}

// Checkpoint cuts a durable checkpoint on the local memory (any role; a
// follower checkpointing only truncates its own replay tail, its durable
// marks — the replication cursor — are unaffected).
func (n *Node) Checkpoint() error { return n.memory().Checkpoint() }

// CheckpointDelta cuts an incremental checkpoint on the local memory
// (any role; satisfies ckpt.Target so a background Runner can pace a
// cluster node exactly like a standalone store).
func (n *Node) CheckpointDelta() error { return n.memory().CheckpointDelta() }

// DeltaChainLen reports the local delta chain length (ckpt.Target).
func (n *Node) DeltaChainLen() int { return n.memory().DeltaChainLen() }

// Flush forces buffered WAL appends durable.
func (n *Node) Flush() error { return n.memory().Flush() }

// TenantRange reports tenant id's range of global addresses; every node of
// a cluster has the same ranges (a poll with another tenant list is refused).
func (n *Node) TenantRange(id string) (base, size uint64, ok bool) {
	return n.memory().TenantRange(id)
}

// Prove builds a verifiable-read witness from the local tree.
func (n *Node) Prove(addr uint64) (*proof.Proof, error) { return n.memory().Prove(addr) }

// RootDigests reports every local shard's root digest.
func (n *Node) RootDigests() []proof.Digest { return n.memory().RootDigests() }

// OnCheckpoint forwards checkpoint notifications (transparency log).
// The registration survives snapshot-bootstrap memory swaps.
func (n *Node) OnCheckpoint(fn func(seq uint64)) {
	n.mu.Lock()
	n.onCkpt = fn
	n.mem.OnCheckpoint(fn)
	n.mu.Unlock()
}

// Durability returns the local durability stats.
func (n *Node) Durability() durable.Stats { return n.memory().Durability() }

// RegisterMetrics exports the underlying store's gauges into reg, and the
// bootstrap counters: cluster.bootstrap.pages and .bytes spooled, and
// .restarts, the transfers started over.
func (n *Node) RegisterMetrics(reg *obs.Registry) {
	n.memory().RegisterMetrics(reg)
	reg.RegisterCollector(func(emit func(string, uint64)) {
		emit("cluster.bootstrap.pages", n.bootPages.Load())
		emit("cluster.bootstrap.bytes", n.bootBytes.Load())
		emit("cluster.bootstrap.restarts", n.bootRestarts.Load())
	})
}

// SetPeers replaces the static membership used for catch-up donor pulls.
// Useful when peer addresses are only known after every node has bound
// its listener.
func (n *Node) SetPeers(peers []string) {
	n.mu.Lock()
	n.cfg.Peers = append([]string(nil), peers...)
	n.mu.Unlock()
}
