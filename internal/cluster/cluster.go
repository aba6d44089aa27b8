// Package cluster turns a set of durable.Memory nodes into a replicated
// morphtree deployment: one primary journals and serves every write,
// followers pull its sealed WAL stream and apply it verbatim, and a
// fencing-epoch protocol hands leadership over without ever losing an
// acknowledged write.
//
// The design leans on two invariants the lower layers already provide:
//
//   - The WAL is a wire-safe replication format. Records are CRC-framed,
//     HMAC'd, and counter-sealed, so a replication batch is just a run of
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
// even decodable as the new epoch's. Promotion is control-plane driven:
// the caller surveys survivors, computes the element-wise max durable
// vector, and asks one replica to promote to epoch+1 — the replica
// refuses while its leader lease is unexpired, catches its tail up from
// donor peers, and only then assumes the role.
package cluster

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
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
	// Primary starts this node as the leader (epoch Epoch); otherwise it
	// starts as a replica following Leader.
	Primary bool
	// Leader is the address a replica starts pulling from.
	Leader string
	// Epoch is the starting fencing epoch (default 1).
	Epoch uint64
	// Lease is how long a replica keeps trusting a silent leader. A
	// replica refuses promotion until Lease has elapsed since its last
	// successful poll, so a slow-but-alive primary is not usurped while
	// it can still ack writes (default 1s).
	Lease time.Duration
	// AckReplicas is how many followers' durable marks must cover a write
	// before the primary acknowledges it (semi-synchronous replication).
	// 0 acks on local durability alone.
	AckReplicas int
	// AckTimeout bounds how long a write waits for replication cover
	// before failing with an AckTimeoutError (default 2s).
	AckTimeout time.Duration
	// PollWait is how long the primary holds an empty replication poll
	// open waiting for new durable records (default 250ms).
	PollWait time.Duration
	// PollRetry is how long a follower waits after a failed poll before
	// retrying (default 50ms).
	PollRetry time.Duration
	// BatchRecords caps records per shard per replication response
	// (default 512).
	BatchRecords int
	// DialTimeout bounds replication dials and round trips (default 5s).
	DialTimeout time.Duration
	// Logf, when set, observes role changes and replication errors.
	Logf func(format string, args ...any)
	// Obs, when non-nil, records cluster counters and the replication-lag
	// gauge (cluster.repl.lag, in records behind the leader).
	Obs *obs.Registry
	// Tracer, when non-nil, receives ReplBatch, Promote, and Fence events.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Epoch == 0 {
		c.Epoch = 1
	}
	if c.Lease <= 0 {
		c.Lease = time.Second
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 2 * time.Second
	}
	if c.PollWait <= 0 {
		c.PollWait = 250 * time.Millisecond
	}
	if c.PollRetry <= 0 {
		c.PollRetry = 50 * time.Millisecond
	}
	if c.BatchRecords <= 0 {
		c.BatchRecords = 512
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	return c
}

// replicaState is what a primary tracks per polling follower.
type replicaState struct {
	marks    []uint64
	lastPoll time.Time
}

// Node is one cluster member. It implements server.Engine (plus the
// Checkpointer, Flusher, and Prover optional surfaces) by delegating to
// its durable.Memory — except that data ops on a non-primary answer
// *wire.MovedError, the refused-before-execution redirect clients follow
// to the leader.
type Node struct {
	cfg   Config
	shcfg shard.Config
	dcfg  durable.Config

	cBatches    *obs.Counter
	cRecords    *obs.Counter
	cAckTimeout *obs.Counter
	cFences     *obs.Counter
	cPromotes   *obs.Counter
	cBootstraps *obs.Counter
	gLag        *obs.Gauge

	mu          sync.Mutex
	mem         *durable.Memory
	role        string
	epoch       uint64
	leader      string // advertised leader address ("" when unknown)
	lastContact time.Time
	bootstrap   bool // next poll must request a full snapshot
	replicas    map[string]*replicaState
	ackCh       chan struct{} // closed when replica marks advance
	pullCl      *wire.Client  // replica's connection to the leader
	pullAddr    string        // address pullCl is dialed to
	onCkpt      func(seq uint64)

	stopc  chan struct{}
	wg     sync.WaitGroup
	closed bool
	halted bool
}

// meta is the node's durable cluster identity, persisted in the data
// directory so a restart cannot resurrect a deposed primary at its old
// epoch.
type meta struct {
	Epoch uint64 `json:"epoch"`
	Role  string `json:"role"`
}

const metaFile = "cluster.META"

// Open recovers (or creates) the node's durable state and starts its
// replication machinery. ReplHistory defaults to 4096 records per shard.
func Open(shcfg shard.Config, dcfg durable.Config, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Config.Self is required")
	}
	if !cfg.Primary && cfg.Leader == "" {
		return nil, fmt.Errorf("cluster: replica needs Config.Leader")
	}
	if dcfg.ReplHistory == 0 {
		dcfg.ReplHistory = 4096
	}
	mem, _, err := durable.Open(shcfg, dcfg)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:         cfg,
		shcfg:       shcfg,
		dcfg:        dcfg,
		cBatches:    cfg.Obs.Counter("cluster.repl.batches"),
		cRecords:    cfg.Obs.Counter("cluster.repl.records"),
		cAckTimeout: cfg.Obs.Counter("cluster.ack.timeouts"),
		cFences:     cfg.Obs.Counter("cluster.fences"),
		cPromotes:   cfg.Obs.Counter("cluster.promotes"),
		cBootstraps: cfg.Obs.Counter("cluster.bootstraps"),
		gLag:        cfg.Obs.Gauge("cluster.repl.lag"),
		mem:         mem,
		role:        RoleReplica,
		epoch:       cfg.Epoch,
		leader:      cfg.Leader,
		lastContact: time.Now(),
		replicas:    map[string]*replicaState{},
		stopc:       make(chan struct{}),
	}
	if cfg.Primary {
		n.role = RolePrimary
		n.leader = cfg.Self
	}
	if m, ok, err := n.loadMeta(); err != nil {
		_ = mem.Close()
		return nil, err
	} else if ok {
		// The persisted identity wins over the startup flags: a deposed
		// primary that crashed and restarted must not come back leading
		// at its old epoch.
		if m.Epoch > n.epoch {
			n.epoch = m.Epoch
		}
		if m.Role != "" {
			n.role = m.Role
		}
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
	n.wg.Add(1)
	go n.puller()
	n.logf("cluster: %s open as %s (epoch %d, leader %s)", cfg.Self, n.role, n.epoch, n.leader)
	return n, nil
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

func (n *Node) loadMeta() (meta, bool, error) {
	b, err := os.ReadFile(filepath.Join(n.dcfg.Dir, metaFile))
	if os.IsNotExist(err) {
		return meta{}, false, nil
	}
	if err != nil {
		return meta{}, false, fmt.Errorf("cluster: read meta: %w", err)
	}
	var m meta
	if err := json.Unmarshal(b, &m); err != nil {
		return meta{}, false, fmt.Errorf("cluster: decode meta: %w", err)
	}
	return m, true, nil
}

// saveMetaLocked persists the node's epoch and role (atomic rename).
// Called with n.mu held (or before the node is shared).
func (n *Node) saveMetaLocked() error {
	b, err := json.Marshal(meta{Epoch: n.epoch, Role: n.role})
	if err != nil {
		return fmt.Errorf("cluster: encode meta: %w", err)
	}
	path := filepath.Join(n.dcfg.Dir, metaFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("cluster: write meta: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("cluster: install meta: %w", err)
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
// out AckTimeout with no replica left to poll — and Close after the
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
	h := hmac.New(sha256.New, master)
	fmt.Fprintf(h, "morphtree/repl/%d/%d", epoch, shardIdx)
	return h.Sum(nil)
}

func (n *Node) codec(epoch uint64, shardIdx int) (*wal.Codec, error) {
	return wal.NewCodec(wal.Options{Key: replKey(n.shcfg.Mem.Key, epoch, shardIdx)})
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

// Seq returns the local snapshot sequence number.
func (n *Node) Seq() uint64 { return n.memory().Seq() }

// Flush forces buffered WAL appends durable.
func (n *Node) Flush() error { return n.memory().Flush() }

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

// RegisterMetrics exports the underlying store's gauges into reg.
func (n *Node) RegisterMetrics(reg *obs.Registry) { n.memory().RegisterMetrics(reg) }

// SetPeers replaces the static membership used for catch-up donor pulls.
// Useful when peer addresses are only known after every node has bound
// its listener.
func (n *Node) SetPeers(peers []string) {
	n.mu.Lock()
	n.cfg.Peers = append([]string(nil), peers...)
	n.mu.Unlock()
}
