package durable

import (
	"bufio"
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
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

// Snapshot file format (integers little-endian):
//
//	magic "MDSS" | u64 version | u64 seq | u64 nshards |
//	nshards × (u64 coveredLSN, u64 coveredWrites) |
//	shard.Save blob | 32-byte HMAC-SHA256 over everything before it
//
// The trailing keyed MAC authenticates the whole file — including the
// on-chip root the shard blob carries and the coverage header replay
// starts from — so any at-rest edit fails recovery with an
// *secmem.IntegrityError. (Substituting an entire older, self-consistent
// {snapshot, WAL} directory is rollback, which needs the root anchored in
// trusted storage and is documented out of scope; see DESIGN.md §10.)
const (
	snapMagic   = "MDSS"
	snapVersion = 1
	snapMACLen  = sha256.Size
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

// writeSnapshot captures the engine state as snapshot.<seq> via temp file,
// fsync, atomic rename, and directory fsync. Callers hold every shard's
// locks, so the state is frozen for the duration.
func (m *Memory) writeSnapshot(seq uint64, covered, coveredWrites []uint64) error {
	final := SnapshotPath(m.cfg.Dir, seq)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	h := hmac.New(sha256.New, m.snapKey)
	bw := bufio.NewWriter(io.MultiWriter(f, h))
	werr := func() error {
		if _, err := bw.WriteString(snapMagic); err != nil {
			return err
		}
		var hdr [24]byte
		binary.LittleEndian.PutUint64(hdr[0:], snapVersion)
		binary.LittleEndian.PutUint64(hdr[8:], seq)
		binary.LittleEndian.PutUint64(hdr[16:], uint64(len(covered)))
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		var pos [16]byte
		for i := range covered {
			binary.LittleEndian.PutUint64(pos[0:], covered[i])
			binary.LittleEndian.PutUint64(pos[8:], coveredWrites[i])
			if _, err := bw.Write(pos[:]); err != nil {
				return err
			}
		}
		if err := m.sh.Save(bw); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if _, err := f.Write(h.Sum(nil)); err != nil {
			return err
		}
		return f.Sync()
	}()
	if werr != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("durable: snapshot %s: %w", tmp, werr)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("durable: snapshot %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("durable: snapshot rename: %w", err)
	}
	return wal.SyncDir(m.cfg.Dir)
}

// readSnapshot authenticates and loads snapshot.<seq>. Rename atomicity
// means a named snapshot is complete, so any malformation or MAC mismatch
// is at-rest tampering, reported as *secmem.IntegrityError.
func readSnapshot(path string, seq uint64, snapKey []byte, shcfg shard.Config) (*shard.Sharded, []uint64, []uint64, error) {
	tamper := func(reason string) error {
		return &secmem.IntegrityError{Level: -1, Index: seq, Reason: "snapshot " + path + ": " + reason}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("durable: read snapshot: %w", err)
	}
	minLen := len(snapMagic) + 24 + snapMACLen
	if len(data) < minLen {
		return nil, nil, nil, tamper(fmt.Sprintf("%d bytes, shorter than any valid snapshot", len(data)))
	}
	body, macGot := data[:len(data)-snapMACLen], data[len(data)-snapMACLen:]
	h := hmac.New(sha256.New, snapKey)
	h.Write(body)
	if !hmac.Equal(h.Sum(nil), macGot) {
		return nil, nil, nil, tamper("file MAC mismatch (at-rest tampering)")
	}
	if string(body[:len(snapMagic)]) != snapMagic {
		return nil, nil, nil, tamper("bad magic")
	}
	body = body[len(snapMagic):]
	if v := binary.LittleEndian.Uint64(body[0:]); v != snapVersion {
		return nil, nil, nil, tamper(fmt.Sprintf("unsupported version %d", v))
	}
	if s := binary.LittleEndian.Uint64(body[8:]); s != seq {
		return nil, nil, nil, tamper(fmt.Sprintf("embedded seq %d does not match filename seq %d", s, seq))
	}
	n := binary.LittleEndian.Uint64(body[16:])
	if n != uint64(shcfg.Shards) {
		// The HMAC already verified, so this is an operator config
		// mismatch, not tampering.
		return nil, nil, nil, &shard.MismatchError{Field: "shards", Stream: n, Config: uint64(shcfg.Shards)}
	}
	body = body[24:]
	if uint64(len(body)) < n*16 {
		return nil, nil, nil, tamper("coverage table cut short")
	}
	covered := make([]uint64, n)
	coveredWrites := make([]uint64, n)
	for i := range covered {
		covered[i] = binary.LittleEndian.Uint64(body[i*16:])
		coveredWrites[i] = binary.LittleEndian.Uint64(body[i*16+8:])
	}
	sh, err := shard.Load(shcfg, bytes.NewReader(body[n*16:]))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("durable: snapshot %s: %w", path, err)
	}
	return sh, covered, coveredWrites, nil
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

func (m *Memory) checkpoint() error {
	if m.closed.Load() {
		return fmt.Errorf("durable: checkpoint after Close")
	}
	start := time.Now()
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()

	// Freeze every shard: sync locks first, then append locks, matching
	// syncTo's ordering.
	for _, c := range m.commits {
		c.syncMu.Lock()
	}
	for _, c := range m.commits {
		c.mu.Lock()
	}
	defer func() {
		for i := len(m.commits) - 1; i >= 0; i-- {
			m.commits[i].mu.Unlock()
		}
		for i := len(m.commits) - 1; i >= 0; i-- {
			m.commits[i].syncMu.Unlock()
		}
	}()

	covered := make([]uint64, len(m.commits))
	coveredWrites := make([]uint64, len(m.commits))
	for i, c := range m.commits {
		if !m.cfg.NoAudit {
			if err := c.appendAuditLocked(m); err != nil {
				return err
			}
		}
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

	if err := m.writeSnapshot(newSeq, covered, coveredWrites); err != nil {
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
//  1. Delete leftover temp files; find the highest-numbered snapshot.
//  2. Authenticate and load it (tampering → *secmem.IntegrityError).
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
	haveSnap := false
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
			if s > head {
				head = s
			}
			continue
		}
		if seq, _, isSnap, ok := parseSeq(name); ok && isSnap {
			snaps[seq] = true
			haveSnap = true
			if seq > head {
				head = seq
			}
		}
	}
	if !haveSnap && len(deltaEntries) > 0 {
		// Deltas with no snapshot at all: every chain is broken.
		_, _, err := ckpt.ResolveChain(head, snaps, deltaEntries)
		return nil, nil, err
	}

	m := &Memory{
		cfg:     cfg,
		shcfg:   shcfg,
		snapKey: snapshotKey(shcfg.Mem.Key),
		// Nil-safe: a nil registry hands out nil instruments whose
		// methods no-op, so the uninstrumented path stays branch-free.
		fsyncLat:  cfg.Obs.Histogram("wal.fsync.latency"),
		batchHist: cfg.Obs.Histogram("wal.group_commit.batch"),
		ckptLat:   cfg.Obs.Histogram("durable.checkpoint.latency"),
		deltaLat:  cfg.Obs.Histogram("durable.delta.latency"),
		tracer:    cfg.Tracer,
	}
	info := &RecoveryInfo{}

	if !haveSnap {
		// Fresh directory: bootstrap epoch 1 so recovery always starts
		// from a snapshot.
		sh, err := shard.New(shcfg)
		if err != nil {
			return nil, nil, err
		}
		m.sh = sh
		m.seq.Store(1)
		m.segSeq.Store(1)
		m.initCommitters(nil, nil)
		if err := m.writeSnapshot(1, make([]uint64, shcfg.Shards), make([]uint64, shcfg.Shards)); err != nil {
			return nil, nil, err
		}
		for i, c := range m.commits {
			l, err := wal.Create(SegmentPath(cfg.Dir, 1, i), wal.Options{Key: walKey(shcfg.Mem.Key, i, 1)})
			if err != nil {
				return nil, nil, err
			}
			c.log = l
		}
		if err := wal.SyncDir(cfg.Dir); err != nil {
			return nil, nil, err
		}
		m.checkpoints.Add(1)
		info.Fresh = true
		info.SnapshotSeq = 1
		info.CoveredLSN = make([]uint64, shcfg.Shards)
		info.CoveredWrites = make([]uint64, shcfg.Shards)
		info.AppliedLSN = make([]uint64, shcfg.Shards)
		info.AppliedWrites = make([]uint64, shcfg.Shards)
		info.TornTails = make([]*wal.TornTailError, shcfg.Shards)
	} else {
		// Resolve the recovery head: the newest epoch, full or delta. A
		// delta head must chain down to a full snapshot — a broken link
		// fails recovery with a typed *ckpt.ChainError, never a silent
		// fallback to an older epoch (the missing link means acknowledged
		// state existed that checkpoints alone can no longer rebuild).
		baseSeq, chain, err := ckpt.ResolveChain(head, snaps, deltaEntries)
		if err != nil {
			return nil, nil, err
		}
		sh, covered, coveredWrites, err := readSnapshot(SnapshotPath(cfg.Dir, baseSeq), baseSeq, m.snapKey, shcfg)
		if err != nil {
			return nil, nil, err
		}
		// baseCovered anchors the segment replay (segments belong to the
		// base epoch); covered advances to the chain head's watermark.
		baseCovered := append([]uint64(nil), covered...)
		var replayedAddrs []uint64
		dKey := deltaKey(shcfg.Mem.Key)
		for _, ent := range chain {
			hdr, dlines, err := ckpt.ReadDelta(ckpt.DeltaPath(cfg.Dir, ent.Seq, ent.Base), dKey, ent.Seq, ent.Base)
			if err != nil {
				return nil, nil, err
			}
			if len(dlines) != shcfg.Shards {
				return nil, nil, &shard.MismatchError{Field: "shards", Stream: uint64(len(dlines)), Config: uint64(shcfg.Shards)}
			}
			for i, shLines := range dlines {
				eng := sh.Shard(i)
				for _, d := range shLines {
					if err := eng.ApplyDeltaLine(d.Level, d.Index, d.Line, d.MAC); err != nil {
						return nil, nil, err
					}
					if d.Level == -1 {
						// Data lines join the sample-verify pool below.
						replayedAddrs = append(replayedAddrs, (d.Index*uint64(shcfg.Shards)+uint64(i))*LineBytes)
					}
					info.DeltaLines++
				}
			}
			covered = hdr.CoveredLSN
			coveredWrites = hdr.CoveredWrites
			info.DeltasApplied++
		}
		m.sh = sh
		m.seq.Store(head)
		m.segSeq.Store(baseSeq)
		m.initCommitters(covered, coveredWrites)
		for i, c := range m.commits {
			c.baseLSN = baseCovered[i]
		}
		info.SnapshotSeq = baseSeq
		info.CoveredLSN = append([]uint64(nil), covered...)
		info.CoveredWrites = append([]uint64(nil), coveredWrites...)
		info.TornTails = make([]*wal.TornTailError, shcfg.Shards)

		for i, c := range m.commits {
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
			if winfo.LastLSN < covered[i] {
				winfo.LastLSN = covered[i]
			}
			c.lsn = winfo.LastLSN
			c.synced = winfo.LastLSN
			// Audit baselines resume from the engine's replayed totals so
			// post-recovery audits count only new events.
			c.auditedOv, c.auditedRb = c.eng.OverflowRebaseTotals()
			info.TornTails[i] = winfo.TornTail
		}
		info.AppliedLSN = make([]uint64, len(m.commits))
		info.AppliedWrites = make([]uint64, len(m.commits))
		for i, c := range m.commits {
			info.AppliedLSN[i] = c.lsn
			info.AppliedWrites[i] = c.writes
		}

		// Sample-verify replayed lines through the integrity tree: every
		// line read here re-verifies its whole MAC chain up to the
		// on-chip root, so a consistent-looking but tampered snapshot or
		// WAL fails closed before the memory serves a single request.
		if k := cfg.VerifySample; k > 0 && len(replayedAddrs) > 0 {
			step := 1
			if len(replayedAddrs) > k {
				step = len(replayedAddrs) / k
			}
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
		// segments for append.
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

