package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wal"
)

// SnapshotPath names epoch seq's snapshot file.
func SnapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snapshot.%016x", seq))
}

// SegmentPath names a shard's WAL segment for epoch seq.
func SegmentPath(dir string, seq uint64, shardIdx int) string {
	return filepath.Join(dir, fmt.Sprintf("wal.%016x-%04d", seq, shardIdx))
}

// parseSeq extracts the epoch from a snapshot, delta, or segment file
// name (a delta's epoch is its own seq, not its base).
func parseSeq(name string) (seq uint64, shardIdx int, isSnap bool, ok bool) {
	switch {
	case strings.HasPrefix(name, "snapshot."):
		s, err := strconv.ParseUint(strings.TrimPrefix(name, "snapshot."), 16, 64)
		return s, 0, true, err == nil
	case strings.HasPrefix(name, "delta."):
		s, _, ok := ckpt.ParseDeltaName(name)
		return s, 0, false, ok
	case strings.HasPrefix(name, "wal."):
		rest := strings.TrimPrefix(name, "wal.")
		dash := strings.IndexByte(rest, '-')
		if dash < 0 {
			return 0, 0, false, false
		}
		s, err1 := strconv.ParseUint(rest[:dash], 16, 64)
		i, err2 := strconv.Atoi(rest[dash+1:])
		return s, i, false, err1 == nil && err2 == nil
	}
	return 0, 0, false, false
}

// A snapshot file is a state stream (internal/ckpt, DESIGN.md "State stream")
// cut against nothing: every shard's full image behind the coverage header
// replay starts from, written and read by the calls that write and read a
// delta segment, under the same role key and a context that binds its epoch
// and base 0. The stream's keyed MAC authenticates the whole file — including
// the on-chip roots it carries — so any at-rest edit fails recovery with an
// *secmem.IntegrityError. (Substituting an entire older, self-consistent
// {snapshot, WAL} directory is rollback, which needs the root anchored in
// trusted storage and is documented out of scope; see DESIGN.md §10.)

// engines lists the shards' engines, each a ckpt.DeltaShard: its full image.
func (m *Memory) engines() []*secmem.Memory {
	engs := make([]*secmem.Memory, m.sh.NumShards())
	for i := range engs {
		engs[i] = m.sh.Shard(i)
	}
	return engs
}

// writeImage captures the engine state as snapshot.<seq> via temp file,
// fsync, atomic rename, and directory fsync. Callers hold every shard's
// locks, so the state is frozen for the duration.
func (m *Memory) writeImage(seq uint64, covered, coveredWrites []uint64) error {
	hdr := ckpt.DeltaHeader{Seq: seq, CoveredLSN: covered, CoveredWrites: coveredWrites}
	if err := ckpt.WriteDelta(new(ckpt.StreamWriter), SnapshotPath(m.cfg.Dir, seq), deltaKey(m.shcfg.Mem.Key), hdr, m.engines()); err != nil {
		return err
	}
	return wal.SyncDir(m.cfg.Dir)
}

// Checkpoint freezes writers, captures an atomic snapshot of the full
// state, starts fresh WAL segments, and only then deletes the files of
// prior epochs (the snapshot-before-truncate invariant). On return the WAL
// is empty and everything acknowledged is durable regardless of policy.
// Any OnCheckpoint hook fires once the new epoch is committed (even if
// retiring old files reported an error — the epoch stands either way).
func (m *Memory) Checkpoint() error {
	before := m.seq.Load()
	err := m.checkpoint()
	if after := m.seq.Load(); after > before && m.onCkpt != nil {
		m.onCkpt(after)
	}
	return err
}

// freeze takes every shard's locks — sync locks first, then append locks,
// matching syncTo's ordering — and returns what releases them: the state and
// the journals stand still in between.
func (m *Memory) freeze() (thaw func()) {
	for _, c := range m.commits {
		c.syncMu.Lock()
	}
	for _, c := range m.commits {
		c.mu.Lock()
	}
	return func() {
		for i := len(m.commits) - 1; i >= 0; i-- {
			m.commits[i].mu.Unlock()
		}
		for i := len(m.commits) - 1; i >= 0; i-- {
			m.commits[i].syncMu.Unlock()
		}
	}
}

func (m *Memory) checkpoint() error {
	start := time.Now()
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	// Under ckptMu, as in CheckpointDelta.
	if m.closed.Load() {
		return fmt.Errorf("durable: checkpoint after Close")
	}

	defer m.freeze()()

	covered := make([]uint64, len(m.commits))
	coveredWrites := make([]uint64, len(m.commits))
	for i, c := range m.commits {
		covered[i] = c.lsn
		coveredWrites[i] = c.writes
	}

	oldSeq := m.seq.Load()
	newSeq := oldSeq + 1

	// New segments are created BEFORE the snapshot rename: a crash here
	// leaves stale next-epoch segments that recovery deletes, while the
	// reverse order could commit a snapshot whose epoch has unjournaled
	// writers.
	newLogs := make([]*wal.Log, len(m.commits))
	master := m.shcfg.Mem.Key
	for i := range m.commits {
		nl, err := wal.Create(SegmentPath(m.cfg.Dir, newSeq, i), wal.Options{Key: walKey(master, i, newSeq)})
		if err != nil {
			for _, l := range newLogs[:i] {
				_ = l.Close()
				_ = os.Remove(l.Path())
			}
			return err
		}
		newLogs[i] = nl
	}

	if err := m.writeImage(newSeq, covered, coveredWrites); err != nil {
		for _, l := range newLogs {
			_ = l.Close()
			_ = os.Remove(l.Path())
		}
		return err
	}

	// The new epoch is committed: swap in the fresh segments, then retire
	// the old epoch's files. Failures past this point must not unwind the
	// epoch — old files are already-covered garbage, so removal errors are
	// reported but the checkpoint stands.
	var firstErr error
	for i, c := range m.commits {
		if err := c.log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		c.log = newLogs[i]
		c.synced = c.lsn
		c.baseLSN = c.lsn
		// The snapshot captured everything; the next delta starts empty.
		c.eng.ResetDirty()
	}
	m.signalDurable()
	if m.seq.Load() > m.segSeq.Load() {
		// This full checkpoint collapsed a non-empty delta chain.
		m.compactions.Add(1)
	}
	m.seq.Store(newSeq)
	m.segSeq.Store(newSeq)
	m.checkpoints.Add(1)
	if err := m.removeEpochsBelow(newSeq); err != nil && firstErr == nil {
		firstErr = err
	}
	dur := time.Since(start)
	m.ckptLat.Record(dur)
	m.tracer.Emit(obs.KindSnapshot, -1, newSeq, 0, dur)
	return firstErr
}

// removeEpochsBelow is the chain-aware stale-epoch sweep: given the
// current head epoch it deletes everything not worth keeping —
//
//   - files from epochs beyond head (stale next-epoch leftovers a crash
//     mid-checkpoint abandoned),
//   - orphan deltas whose ancestry cannot reach a full snapshot (their
//     base was compacted away, or a link is missing),
//   - files older than the retention floor (head − KeepEpochs) that no
//     retained chain requires.
//
// A retained delta always keeps its whole ancestry: the required-epoch
// set is computed by walking every resolvable chain whose head is at or
// above the floor, so retention can never create the orphans it sweeps.
func (m *Memory) removeEpochsBelow(head uint64) error {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return fmt.Errorf("durable: scan %s: %w", m.cfg.Dir, err)
	}
	snaps := make(map[uint64]bool)
	deltas := make(map[uint64]ckpt.Entry)
	for _, e := range entries {
		name := e.Name()
		if s, b, ok := ckpt.ParseDeltaName(name); ok {
			if s <= head {
				deltas[s] = ckpt.Entry{Seq: s, Base: b}
			}
			continue
		}
		if seq, _, isSnap, ok := parseSeq(name); ok && isSnap && seq <= head {
			snaps[seq] = true
		}
	}
	floor := uint64(1)
	if head > uint64(m.cfg.KeepEpochs) {
		floor = head - uint64(m.cfg.KeepEpochs)
	}
	var heads []uint64
	for s := range snaps {
		if s >= floor {
			heads = append(heads, s)
		}
	}
	for s := range deltas {
		if s >= floor {
			heads = append(heads, s)
		}
	}
	required := ckpt.Required(heads, snaps, deltas)

	var firstErr error
	removed := false
	for _, e := range entries {
		name := e.Name()
		seq, _, _, ok := parseSeq(name)
		if !ok {
			continue
		}
		_, _, isDelta := ckpt.ParseDeltaName(name)
		drop := seq > head ||
			(isDelta && !required[seq]) ||
			(seq < floor && !required[seq])
		if !drop {
			continue
		}
		if err := os.Remove(filepath.Join(m.cfg.Dir, name)); err != nil && firstErr == nil {
			firstErr = err
		}
		removed = true
	}
	if removed {
		if err := wal.SyncDir(m.cfg.Dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Open recovers (or bootstraps) a durable memory from cfg.Dir:
//
//  1. Delete leftover temp files; find the newest epoch, full or delta, and
//     the chain from a full snapshot up to it (an empty directory is first
//     given snapshot 1, an empty image, so recovery always starts from one).
//  2. Authenticate and apply the snapshot and each delta of the chain, the
//     same way (tampering → *secmem.IntegrityError, a file from before the
//     state stream → *secmem.VersionError).
//  3. Replay each shard's WAL segment on top, truncating crash-torn tails
//     (recorded as typed TornTailErrors in the RecoveryInfo) and failing
//     closed on MAC or sequence violations.
//  4. Re-read a sample of the replayed lines through the integrity tree,
//     so tampered at-rest state surfaces as *secmem.IntegrityError now,
//     not at first client read.
//  5. Delete files from other epochs and reopen the segments for append.
func Open(shcfg shard.Config, cfg Config) (*Memory, *RecoveryInfo, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: scan %s: %w", cfg.Dir, err)
	}
	snaps := make(map[uint64]bool)
	deltaEntries := make(map[uint64]ckpt.Entry)
	var head uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A temp file is a snapshot or delta whose write was cut by a
			// crash before the atomic rename; it never became current.
			if err := os.Remove(filepath.Join(cfg.Dir, name)); err != nil {
				return nil, nil, fmt.Errorf("durable: remove stale %s: %w", name, err)
			}
			continue
		}
		if s, b, ok := ckpt.ParseDeltaName(name); ok {
			deltaEntries[s] = ckpt.Entry{Seq: s, Base: b}
			head = max(head, s)
			continue
		}
		if seq, _, isSnap, ok := parseSeq(name); ok && isSnap {
			snaps[seq] = true
			head = max(head, seq)
		}
	}

	sh, err := shard.New(shcfg)
	if err != nil {
		return nil, nil, err
	}
	m := &Memory{
		cfg:   cfg,
		shcfg: shcfg,
		sh:    sh,
		// Nil-safe: a nil registry hands out nil instruments whose
		// methods no-op, so the uninstrumented path stays branch-free.
		fsyncLat:  cfg.Obs.Histogram("wal.fsync.latency"),
		batchHist: cfg.Obs.Histogram("wal.group_commit.batch"),
		ckptLat:   cfg.Obs.Histogram("durable.checkpoint.latency"),
		deltaLat:  cfg.Obs.Histogram("durable.delta.latency"),
		tracer:    cfg.Tracer,
	}
	info := &RecoveryInfo{Fresh: head == 0}
	if info.Fresh {
		// Fresh directory: bootstrap epoch 1 so recovery always starts
		// from a snapshot — this one, read back like any other.
		if err := m.writeImage(1, make([]uint64, shcfg.Shards), make([]uint64, shcfg.Shards)); err != nil {
			return nil, nil, err
		}
		snaps[1], head = true, 1
		m.checkpoints.Add(1)
	}

	// Resolve the recovery head: the newest epoch, full or delta. A delta
	// head must chain down to a full snapshot — a broken link fails recovery
	// with a typed *ckpt.ChainError, never a silent fallback to an older
	// epoch (the missing link means acknowledged state existed that
	// checkpoints alone can no longer rebuild).
	baseSeq, chain, err := ckpt.ResolveChain(head, snaps, deltaEntries)
	if err != nil {
		return nil, nil, err
	}
	// The base is the chain's first link: a state stream cut against nothing.
	// baseCovered anchors the segment replay (segments belong to the base
	// epoch); covered advances to the chain head's watermark.
	var baseCovered, covered, coveredWrites, replayedAddrs []uint64
	for _, ent := range append([]ckpt.Entry{{Seq: baseSeq}}, chain...) {
		path := SnapshotPath(cfg.Dir, ent.Seq)
		if ent.Base != 0 {
			path = ckpt.DeltaPath(cfg.Dir, ent.Seq, ent.Base)
		}
		hdr, err := ckpt.ReadDelta(path, deltaKey(shcfg.Mem.Key), ent.Seq, ent.Base, func(hdr ckpt.DeltaHeader, i int, r io.Reader) error {
			if n := len(hdr.CoveredLSN); n != shcfg.Shards {
				// Reported only if the stream authenticates, so this is an
				// operator config mismatch, not tampering.
				return &shard.MismatchError{Field: "shards", Stream: uint64(n), Config: uint64(shcfg.Shards)}
			}
			return secmem.ReadRecords(r, func(batch []secmem.DirtyLine) error {
				if ent.Base != 0 {
					info.DeltaLines += len(batch)
					for _, d := range batch {
						if d.Level == -1 {
							// A delta's data lines join the sample-verify pool below.
							replayedAddrs = append(replayedAddrs, (d.Index*uint64(shcfg.Shards)+uint64(i))*LineBytes)
						}
					}
				}
				return sh.Shard(i).Apply(batch)
			})
		})
		if err != nil {
			return nil, nil, fmt.Errorf("durable: %w", err)
		}
		if covered, coveredWrites = hdr.CoveredLSN, hdr.CoveredWrites; ent.Base == 0 {
			baseCovered = covered
		} else {
			info.DeltasApplied++
		}
	}
	m.seq.Store(head)
	m.segSeq.Store(baseSeq)
	m.initCommitters(covered, coveredWrites)
	info.SnapshotSeq = baseSeq
	info.CoveredLSN = append([]uint64(nil), covered...)
	info.CoveredWrites = append([]uint64(nil), coveredWrites...)
	info.TornTails = make([]*wal.TornTailError, shcfg.Shards)

	for i, c := range m.commits {
		c.baseLSN = baseCovered[i]
		path := SegmentPath(cfg.Dir, baseSeq, i)
		// ReplayedRecords/Writes count only the delivered tail past the
		// chain's watermark — the work recovery actually redid — not the
		// validated-but-skipped prefix the deltas already cover.
		winfo, err := wal.ReplayTail(path, wal.Options{Key: walKey(shcfg.Mem.Key, i, baseSeq)}, baseCovered[i]+1, covered[i]+1, true, func(r wal.Record) error {
			info.ReplayedRecords++
			if r.Kind != wal.KindWrite {
				return nil
			}
			j, _, err := sh.Locate(r.Addr)
			if err != nil {
				return &secmem.IntegrityError{Level: -1, Index: r.LSN,
					Reason: fmt.Sprintf("wal record address %#x invalid: %v", r.Addr, err)}
			}
			if j != i {
				return &secmem.IntegrityError{Level: -1, Index: r.LSN,
					Reason: fmt.Sprintf("wal record for shard %d found in shard %d's segment", j, i)}
			}
			if err := sh.Write(r.Addr, r.Line); err != nil {
				return err
			}
			c.writes++
			info.ReplayedWrites++
			replayedAddrs = append(replayedAddrs, r.Addr)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		// The delta cut fsyncs its covered prefix, so a surviving
		// segment never ends below the chain's watermark; the max
		// guards an empty tail all the same.
		c.lsn = max(winfo.LastLSN, covered[i])
		c.synced = c.lsn
		info.TornTails[i] = winfo.TornTail
		info.AppliedLSN = append(info.AppliedLSN, c.lsn)
		info.AppliedWrites = append(info.AppliedWrites, c.writes)
	}

	// Sample-verify replayed lines through the integrity tree: every
	// line read here re-verifies its whole MAC chain up to the
	// on-chip root, so a consistent-looking but tampered snapshot or
	// WAL fails closed before the memory serves a single request.
	if k := cfg.VerifySample; k > 0 && len(replayedAddrs) > 0 {
		step := max(1, len(replayedAddrs)/k)
		for i := 0; i < len(replayedAddrs) && info.SampleVerified < k; i += step {
			if _, err := sh.Read(replayedAddrs[i]); err != nil {
				return nil, nil, err
			}
			info.SampleVerified++
		}
	}
	if cfg.VerifyAll {
		if err := sh.VerifyAll(); err != nil {
			return nil, nil, err
		}
	}

	// Retire stale files (next-epoch segments a crash mid-checkpoint
	// abandoned, orphan deltas whose base was compacted away, epochs
	// past the retention floor), then reopen the base epoch's
	// segments for append — creating them in a directory that has only its
	// snapshot yet, which is why the directory is synced after.
	if err := m.removeEpochsBelow(head); err != nil {
		return nil, nil, err
	}
	for i, c := range m.commits {
		l, err := wal.Open(SegmentPath(cfg.Dir, baseSeq, i), wal.Options{Key: walKey(shcfg.Mem.Key, i, baseSeq)})
		if err != nil {
			return nil, nil, err
		}
		c.log = l
	}
	if err := wal.SyncDir(cfg.Dir); err != nil {
		return nil, nil, err
	}

	if cfg.Sync == SyncInterval {
		m.startFlusher()
	}
	info.Elapsed = time.Since(start)
	m.recoveryUS.Store(uint64(info.Elapsed.Microseconds()))
	return m, info, nil
}

// initCommitters builds the per-shard committers (logs attached later).
func (m *Memory) initCommitters(covered, coveredWrites []uint64) {
	m.commits = make([]*committer, m.shcfg.Shards)
	for i := range m.commits {
		c := &committer{shard: i, eng: m.sh.Shard(i)}
		if covered != nil {
			c.lsn = covered[i]
			c.synced = covered[i]
			c.baseLSN = covered[i]
		}
		if coveredWrites != nil {
			c.writes = coveredWrites[i]
		}
		m.commits[i] = c
	}
}
