// Package durable (morphdur) makes a sharded secure memory crash-
// consistent: every mutating operation is journaled to a per-shard
// write-ahead log before it is applied, and the full state is periodically
// captured in a monotonically numbered atomic snapshot. Recovery replays
// the newest snapshot's WAL segments on top of it, tolerates crash-torn
// tails (truncate and continue), and fails closed with an IntegrityError on
// any at-rest tampering.
//
// Layout of a data directory (seq is a monotonically increasing epoch):
//
//	snapshot.<seq>        atomic full-state snapshot (temp-file + rename)
//	delta.<seq>.<base>    the lines modified since epoch <base> (checkpoint.go)
//	wal.<seq>-<shard>     shard's journal from its cut of full checkpoint <seq> on
//	TENANTS               the tenant list, in a store with tenants (tenants.go)
//	cluster.META          a cluster node's epoch and role (internal/cluster)
//
// Every file is a WAL segment or a state stream in internal/ckpt's
// authenticated container: a snapshot and a delta are the same file — of
// every stored line or of the lines stamped since the base — written and
// read by the same calls, TENANTS and cluster.META one-frame streams; a
// replica bootstraps from its primary's base snapshot file, shipped page by
// page into bootstrap.tmp and landed under the base's own name
// (replicate.go).
//
// Invariants the checkpoint sequence maintains:
//
//  1. WAL-before-apply: a write's record is appended (under the same lock
//     that applies it) before the engine mutates, so the on-disk journal
//     order equals the apply order per shard.
//  2. Snapshot-before-truncate: old segments and snapshots are deleted
//     only after the snapshot that covers them has been fsynced and
//     atomically renamed into place. A crash at any byte of the sequence
//     leaves either the old epoch fully intact, with the segments a shard
//     rotated to since, which recovery replays after the old ones, or the
//     new one.
//  3. Durability point: a write is durable when its WAL frame is fsynced.
//     SyncAlways acks after a group-commit fsync (concurrent writers on a
//     shard share one fsync); SyncInterval fsyncs on a timer; SyncNone
//     only at checkpoint/flush/close.
//
// Phoenix-style lazy persistence maps onto this design as: counters and
// tree state live only in snapshots (written lazily, at checkpoints), while
// the WAL carries the logical writes needed to rebuild the gap — replaying
// a write through the engine regenerates counters, MACs, and tree updates
// deterministically. Per Anubis, recovery work is bounded by the WAL length
// since the last checkpoint, not by memory size.
package durable

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/mac"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wal"
)

// LineBytes mirrors the engine's cacheline granularity.
const LineBytes = shard.LineBytes

// SyncPolicy selects when WAL appends are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs before acknowledging every write; concurrent
	// writers to a shard are group-committed under one fsync.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background timer (every 2 ms);
	// writes acknowledged between ticks can be lost to a crash.
	SyncInterval
	// SyncNone fsyncs only at checkpoints, Flush, and Close.
	SyncNone
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses the -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("durable: unknown sync policy %q (want always, interval, none)", s)
}

// Config tunes the durability layer.
type Config struct {
	// Dir is the data directory (created if absent).
	Dir string
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// Obs, when non-nil, records wal.fsync.latency, wal.group_commit.batch
	// (records made durable per fsync) and durable.checkpoint.latency
	// histograms, and traces WALFsync (per group commit), Snapshot and
	// DeltaCkpt (per checkpoint) events.
	Obs *obs.Registry
}

const (
	// syncInterval is the SyncInterval flush period.
	syncInterval = 2 * time.Millisecond
	// verifySample caps how many replayed lines recovery re-reads through the
	// integrity tree, so at-rest tampering of WAL or snapshot surfaces as an
	// *secmem.IntegrityError at startup.
	verifySample = 16
)

// Stats counts durability-layer activity.
type Stats struct {
	// Appends is the number of write records journaled.
	Appends uint64
	// Fsyncs is the number of WAL fsyncs issued; Appends/Fsyncs is the
	// group-commit batching factor.
	Fsyncs uint64
	// Checkpoints counts snapshots taken (including the bootstrap one).
	Checkpoints uint64
	// DeltaCheckpoints counts incremental delta checkpoints cut.
	DeltaCheckpoints uint64
	// Compactions counts full checkpoints that collapsed a non-empty
	// delta chain.
	Compactions uint64
}

// RecoveryInfo describes what Open reconstructed.
type RecoveryInfo struct {
	// Fresh reports an empty directory bootstrapped with snapshot 1.
	Fresh bool
	// SnapshotSeq is the epoch recovered from.
	SnapshotSeq uint64
	// CoveredLSN is the per-shard journal positions the chain covers.
	CoveredLSN []uint64
	// ReplayedRecords totals the WAL records replayed past them.
	ReplayedRecords int
	// FramesAuthenticated totals the WAL frames whose MAC recovery checked,
	// and BytesRead the segment bytes it read: the frames past the covered
	// LSNs, never the covered prefix.
	FramesAuthenticated int
	BytesRead           int64
	// DeltasApplied is how many delta segments the recovery chain held;
	// DeltaLines the total lines installed from them.
	DeltasApplied, DeltaLines int
	// TornTails holds, per shard, the torn-tail truncation performed (nil
	// entry = clean tail).
	TornTails []*wal.TornTailError
	// SampleVerified is how many replayed lines were re-read through the
	// integrity tree.
	SampleVerified int
	// Elapsed is the wall-clock recovery time.
	Elapsed time.Duration
}

// TornTailCount returns how many shards needed tail truncation.
func (r *RecoveryInfo) TornTailCount() int {
	n := 0
	for _, t := range r.TornTails {
		if t != nil {
			n++
		}
	}
	return n
}

// committer is one shard's journal: its mutex is both the append lock and
// the apply-order lock, so the WAL's record order always equals the order
// mutations hit the engine.
type committer struct {
	shard int
	eng   *secmem.Memory

	mu  sync.Mutex // guards log appends + engine apply order + lsn
	log *wal.Log
	lsn uint64 // last assigned LSN (cumulative across segments)
	// seq is the live segment's epoch and baseLSN the LSN it starts after
	// (the shard's covered LSN at the full cut that rotated to it); the
	// replication cursor's file fallback finds record baseLSN+1 at the
	// segment's start. Written under ckptMu, syncMu and mu.
	seq, baseLSN uint64
	// older are the shard's segments below the live one, oldest first, that
	// stay on disk until a full checkpoint renames: the base epoch's, and
	// those a full checkpoint that failed rotated past. Guarded by mu.
	older []segment
	// tail holds the latest records for the replication cursor from its first
	// read on (polled), lsn in slot lsn%tailRecords. Guarded by mu.
	polled bool
	tail   [tailRecords / tailChunk]*[tailChunk]tailSlot

	syncMu sync.Mutex // guards synced, failed and the fsync itself
	synced uint64     // last LSN known durable
	// failed is set when a rotation could not make its old segment whole on
	// disk or the new one's directory entry durable: no record past synced
	// is acknowledged from then on, since a later fsync of the new segment
	// says nothing of the old one. Reopening the store recovers.
	failed error
}

// segment is one of a shard's WAL segments: its epoch, and the LSN its first
// record follows.
type segment struct{ seq, base uint64 }

// Memory is a crash-consistent secure memory: a shard.Sharded engine whose
// every mutation is WAL-journaled and periodically snapshotted. Reads and
// writes are safe for concurrent use; a checkpoint holds a shard's writers
// only while that shard's cut begins.
type Memory struct {
	cfg   Config
	shcfg shard.Config
	sh    *shard.Sharded

	// Observability instruments (nil-safe; immutable after Open).
	fsyncLat  *obs.Histogram // wal.fsync.latency
	batchHist *obs.Histogram // wal.group_commit.batch (records per fsync)
	ckptLat   *obs.Histogram // durable.checkpoint.latency
	deltaLat  *obs.Histogram // durable.delta.latency
	tracer    *obs.Tracer

	ckptMu sync.Mutex // serializes Checkpoint / CheckpointDelta / Flush / Close
	// sw is the stream writer every checkpoint is cut through, under
	// ckptMu: a cut every few seconds reuses its frame buffer.
	sw  ckpt.StreamWriter
	seq atomic.Uint64
	// baseSeq is the epoch of the full snapshot the current delta chain is
	// based on. seq == baseSeq means no deltas are outstanding.
	baseSeq atomic.Uint64
	onCkpt  func(seq uint64) // set before concurrent use via OnCheckpoint
	// persisting, when set, runs under ckptMu as a checkpoint's file write
	// begins, every cut begun and no shard's lock held: the one place a test
	// parks that write.
	persisting func()

	commits []*committer

	appends     atomic.Uint64
	fsyncs      atomic.Uint64
	checkpoints atomic.Uint64
	deltaCkpts  atomic.Uint64
	compactions atomic.Uint64
	deltaBytes  atomic.Uint64
	recoveryUS  atomic.Uint64 // last recovery duration, microseconds

	bgErrMu sync.Mutex
	bgErr   error // first background-flusher failure, surfaced on Flush/Close

	// sigMu/sigCh implement DurableSignal's replace-on-broadcast channel.
	sigMu sync.Mutex
	sigCh chan struct{}

	// The SyncInterval flusher sleeps until a write journals a record it
	// has not synced: unsynced is set by the first such write, which also
	// rings wake (one slot; nil under the other policies). flushCycles
	// counts the flusher's wake-ups.
	unsynced    atomic.Bool
	wake        chan struct{}
	flushCycles atomic.Uint64

	closed atomic.Bool
	stopc  chan struct{}
	wg     sync.WaitGroup
}

// derived keys: every file is sealed/authenticated under a key bound to its
// role (and, for WAL segments, its shard and epoch), all derived from the
// engine master key. A segment or snapshot moved, renamed, or replayed from
// another epoch therefore fails authentication.
func walKey(master []byte, shardIdx int, seq uint64) []byte {
	return mac.Derive(master, fmt.Sprintf("morphtree/wal/%d/%d", shardIdx, seq))
}

// deltaKey authenticates state streams at rest and on their way to a replica
// — snapshots and delta segments, a replica's bootstrap being a snapshot
// file; the ckpt stream context binds each to its exact chain position on top
// of this role key.
func deltaKey(master []byte) []byte {
	return mac.Derive(master, "morphtree/delta")
}

// Sharded exposes the underlying engine (tests and the crash harness reach
// the adversary interface through it). Mutations made directly on it bypass
// the journal.
func (m *Memory) Sharded() *shard.Sharded { return m.sh }

// Seq returns the current checkpoint epoch (full or delta).
func (m *Memory) Seq() uint64 { return m.seq.Load() }

// DeltaChainLen reports how many delta checkpoints sit atop the current
// base snapshot (the ckpt.Runner compacts once this passes its threshold).
func (m *Memory) DeltaChainLen() int { return int(m.seq.Load() - m.baseSeq.Load()) }

// NumShards returns the shard count.
func (m *Memory) NumShards() int { return len(m.commits) }

// Read verifies and decrypts the line at a line-aligned global address.
func (m *Memory) Read(addr uint64) ([]byte, error) { return m.AppendRead(nil, addr) }

// AppendRead is Read appended to dst (shard.Sharded.AppendRead).
func (m *Memory) AppendRead(dst []byte, addr uint64) ([]byte, error) {
	return m.sh.AppendRead(dst, addr)
}

// VerifyAll re-verifies every written line in every shard.
func (m *Memory) VerifyAll() error { return m.sh.VerifyAll() }

// Stats returns the engine's aggregated activity counters.
func (m *Memory) Stats() secmem.Stats { return m.sh.Stats() }

// FlipDataBit forwards the adversary interface (wire TAMPER op).
func (m *Memory) FlipDataBit(addr uint64, byteOff int, bit uint) bool {
	return m.sh.FlipDataBit(addr, byteOff, bit)
}

// TenantRange forwards tenant id's range of global addresses
// (shard.Sharded.TenantRange).
func (m *Memory) TenantRange(id string) (base, size uint64, ok bool) { return m.sh.TenantRange(id) }

// Prove forwards proof building to the engine (the wire PROOF op).
func (m *Memory) Prove(addr uint64) (*proof.Proof, error) { return m.sh.Prove(addr) }

// RootDigests forwards the per-shard root digests.
func (m *Memory) RootDigests() []proof.Digest { return m.sh.RootDigests() }

// OnCheckpoint registers a hook fired after every successful Checkpoint
// with the new snapshot epoch — the transparency log publishes the root
// from it. It must be set before the memory is shared between goroutines,
// and the hook must not call back into Checkpoint.
func (m *Memory) OnCheckpoint(fn func(seq uint64)) { m.onCkpt = fn }

// RegisterMetrics registers pull-time collectors on reg: the underlying
// engine's shard/secmem collector plus the durability counters
// (durable.appends / fsyncs / checkpoints and the current snapshot epoch
// durable.seq). Nil registries are a no-op.
func (m *Memory) RegisterMetrics(reg *obs.Registry) {
	m.sh.RegisterMetrics(reg)
	reg.RegisterCollector(func(emit func(string, uint64)) {
		emit("durable.appends", m.appends.Load())
		emit("durable.fsyncs", m.fsyncs.Load())
		emit("durable.checkpoints", m.checkpoints.Load())
		emit("durable.seq", m.seq.Load())
		emit("durable.ckpt.deltas", m.deltaCkpts.Load())
		emit("durable.ckpt.delta_bytes", m.deltaBytes.Load())
		emit("durable.ckpt.compactions", m.compactions.Load())
		emit("durable.ckpt.chain", m.seq.Load()-m.baseSeq.Load())
		emit("durable.recovery_us", m.recoveryUS.Load())
	})
}

// Durability returns the durability-layer activity counters.
func (m *Memory) Durability() Stats {
	return Stats{
		Appends:          m.appends.Load(),
		Fsyncs:           m.fsyncs.Load(),
		Checkpoints:      m.checkpoints.Load(),
		DeltaCheckpoints: m.deltaCkpts.Load(),
		Compactions:      m.compactions.Load(),
	}
}

// Write journals and applies one 64-byte line write. It returns once the
// write is applied and — under SyncAlways — once its WAL frame is fsynced.
func (m *Memory) Write(addr uint64, line []byte) error {
	_, _, err := m.WriteLSN(addr, line)
	return err
}

// WriteLSN is Write returning the shard index and LSN the record was
// journaled at; the cluster layer uses the position to wait for replica
// acknowledgement before acking the client. The journal refuses a line of
// another length, before anything is written.
func (m *Memory) WriteLSN(addr uint64, line []byte) (int, uint64, error) {
	if m.closed.Load() {
		return 0, 0, fmt.Errorf("durable: write after Close")
	}
	idx, _, err := m.sh.Locate(addr)
	if err != nil {
		return 0, 0, err
	}
	c := m.commits[idx]
	c.mu.Lock()
	lsn, err := c.applyLocked(m, addr, line)
	c.mu.Unlock()
	if lsn == 0 {
		return idx, 0, err
	}
	if m.wake != nil && !m.unsynced.Load() && m.unsynced.CompareAndSwap(false, true) {
		select {
		case m.wake <- struct{}{}:
		default:
		}
	}
	if err != nil {
		// The record is journaled but the engine refused it (which, with
		// address and length validated, means live-state tampering).
		// Replay on restart applies it; the divergence is reported, not
		// hidden.
		return idx, lsn, err
	}
	if m.cfg.Sync == SyncAlways {
		return idx, lsn, c.syncTo(m, lsn)
	}
	return idx, lsn, nil
}

// applyLocked journals a write of line at addr as the shard's next record and
// applies it to the engine, for a write and a replicated record alike. It
// returns the record's LSN, or 0 if the journal refused it; an error beside
// an LSN is the engine refusing a journaled record. Called with c.mu held.
func (c *committer) applyLocked(m *Memory, addr uint64, line []byte) (uint64, error) {
	lsn := c.lsn + 1
	if err := c.log.Append(wal.Record{Kind: wal.KindWrite, LSN: lsn, Addr: addr, Line: line}); err != nil {
		return 0, err
	}
	c.lsn = lsn
	c.pushTailLocked(lsn, addr, line)
	if err := m.sh.Write(addr, line); err != nil {
		return lsn, err
	}
	m.appends.Add(1)
	return lsn, nil
}

// check returns nil for a record replayed or replicated into this shard's
// journal whose address is one of the shard's lines, else the
// *secmem.IntegrityError that refuses it.
func (c *committer) check(m *Memory, r wal.Record) error {
	j, _, err := m.sh.Locate(r.Addr)
	if err == nil && j != c.shard {
		err = fmt.Errorf("the line is shard %d's", j)
	}
	if err != nil {
		return &secmem.IntegrityError{Level: -1, Index: r.LSN,
			Reason: fmt.Sprintf("wal record address %#x in shard %d's journal: %v", r.Addr, c.shard, err)}
	}
	return nil
}

// syncTo makes every record up to at least lsn durable. The first caller
// in a burst becomes the group-commit leader: it flushes and fsyncs
// everything appended so far, and concurrent callers whose LSN that batch
// covered return without issuing their own fsync. Histogram records and
// trace emission happen after both locks are released.
func (c *committer) syncTo(m *Memory, lsn uint64) error {
	batch, fsyncDur, err := c.sync(m, lsn)
	if err != nil || batch == 0 {
		return err
	}
	m.fsyncLat.Record(fsyncDur)
	m.batchHist.RecordValue(int64(batch))
	m.tracer.Emit(obs.KindWALFsync, int32(c.shard), batch, 0, fsyncDur)
	return nil
}

// sync is syncTo's locked core; it returns how many records this fsync
// made durable (0 when an earlier group commit already covered lsn) and
// how long the fsync itself took.
func (c *committer) sync(m *Memory, lsn uint64) (batch uint64, fsyncDur time.Duration, err error) {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	if c.synced >= lsn {
		return 0, 0, nil
	}
	if c.failed != nil {
		return 0, 0, c.failed
	}
	c.mu.Lock()
	target := c.lsn
	err = c.log.Flush()
	c.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := c.log.Fsync(); err != nil {
		return 0, 0, err
	}
	fsyncDur = time.Since(start)
	batch = target - c.synced
	c.synced = target
	m.fsyncs.Add(1)
	m.signalDurable()
	return batch, fsyncDur, nil
}

// startFlusher starts the SyncInterval background goroutine.
func (m *Memory) startFlusher() {
	m.stopc = make(chan struct{})
	m.wake = make(chan struct{}, 1)
	m.wg.Add(1)
	go m.flusher()
}

// flusher parks until a write rings wake, syncs syncInterval later — so a
// write is durable within syncInterval plus one fsync, as under a ticker — and
// parks again: an idle store costs no wake-ups. unsynced is cleared before the
// LSNs are read, so a write that finds it still set was journaled before this
// cycle reads its shard and is covered by it; one that finds it clear rings.
// The goroutine has one timer for its life — a new one per 2 ms cycle was most
// of what a durable server under load left for the collector.
func (m *Memory) flusher() {
	defer m.wg.Done()
	var t *time.Timer
	for {
		select {
		case <-m.stopc:
			return
		case <-m.wake:
		}
		m.flushCycles.Add(1)
		if t == nil {
			t = time.NewTimer(syncInterval)
		} else {
			t.Reset(syncInterval) // its last tick was received below: t.C is empty
		}
		select {
		case <-m.stopc:
			t.Stop()
			return
		case <-t.C:
		}
		m.unsynced.Store(false)
		for _, c := range m.commits {
			c.mu.Lock()
			lsn := c.lsn
			c.mu.Unlock()
			if err := c.syncTo(m, lsn); err != nil {
				m.setBgErr(err)
			}
		}
	}
}

func (m *Memory) setBgErr(err error) {
	m.bgErrMu.Lock()
	if m.bgErr == nil {
		m.bgErr = err
	}
	m.bgErrMu.Unlock()
}

func (m *Memory) takeBgErr() error {
	m.bgErrMu.Lock()
	defer m.bgErrMu.Unlock()
	err := m.bgErr
	m.bgErr = nil
	return err
}

// Flush makes every journaled record durable (the graceful-shutdown flush),
// and surfaces any background flusher failure.
func (m *Memory) Flush() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	return m.flushLocked()
}

func (m *Memory) flushLocked() error {
	for _, c := range m.commits {
		c.mu.Lock()
		lsn := c.lsn
		c.mu.Unlock()
		if err := c.syncTo(m, lsn); err != nil {
			return err
		}
	}
	return m.takeBgErr()
}

// Close flushes the WAL and closes every segment. It does not checkpoint;
// the WAL replays on next Open. Write and Checkpoint fail after Close.
func (m *Memory) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	if m.stopc != nil {
		close(m.stopc)
	}
	m.wg.Wait()
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	firstErr := m.flushLocked()
	for _, c := range m.commits {
		c.syncMu.Lock()
		c.mu.Lock()
		if err := c.log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		c.mu.Unlock()
		c.syncMu.Unlock()
	}
	return firstErr
}
