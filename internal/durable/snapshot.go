package durable

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/securemem/morphtree/internal/ckpt"
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
// and base 0. The stream's chain of frame tags authenticates the whole file —
// including the on-chip roots it carries — so any at-rest edit fails recovery
// with an *secmem.IntegrityError. (Substituting an entire older, self-consistent
// {snapshot, WAL} directory is rollback, which needs the root anchored in
// trusted storage and is documented out of scope; see DESIGN.md §10.)

// removeEpochsBelow is the stale-epoch sweep: it keeps exactly the head
// epoch's chain — its base snapshot and every link delta — and each shard's
// WAL segments from the base's epoch to its live one, and deletes every other
// file of an epoch: orphan deltas, superseded chains and their segments,
// next-epoch leftovers. Recovery only ever reads those (Open never falls
// back), so nothing else on disk has a reader. A head whose chain does not
// resolve is an error and deletes nothing. The caller holds ckptMu, or is
// Open.
func (m *Memory) removeEpochsBelow(head uint64) error {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return fmt.Errorf("durable: scan %s: %w", m.cfg.Dir, err)
	}
	snaps := make(map[uint64]bool)
	deltas := make(map[uint64]ckpt.Entry)
	for _, e := range entries {
		if s, b, ok := ckpt.ParseDeltaName(e.Name()); ok {
			deltas[s] = ckpt.Entry{Seq: s, Base: b}
		} else if seq, _, isSnap, ok := parseSeq(e.Name()); ok && isSnap {
			snaps[seq] = true
		}
	}
	base, chain, err := ckpt.ResolveChain(head, snaps, deltas)
	if err != nil {
		return err
	}
	keep := map[uint64]bool{base: true}
	for _, d := range chain {
		keep[d.Seq] = true
	}

	var firstErr error
	removed := false
	for _, e := range entries {
		name := e.Name()
		seq, i, _, ok := parseSeq(name)
		switch {
		case !ok:
			continue
		case strings.HasPrefix(name, "wal."):
			// Recovery replays a shard's segments from the base's epoch
			// to its live one.
			if i < len(m.commits) && seq >= base && seq <= m.commits[i].seq {
				continue
			}
		case keep[seq]:
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
//  1. Set leftover temp files aside; find the newest epoch, full or delta, and
//     the chain from a full snapshot up to it (an empty directory is first
//     given snapshot 1, an empty image, so recovery always starts from one).
//     Hold the store's tenant list to shcfg.Tenants (checkTenants): another
//     list is a *shard.MismatchError before anything is read.
//  2. Authenticate and apply the snapshot and each delta of the chain, the
//     same way (tampering → *secmem.IntegrityError, a file from before the
//     state stream → *secmem.VersionError).
//  3. Replay each shard's WAL segments on top, the base epoch's and then
//     any a later full checkpoint rotated the shard to before a crash took
//     it, noting a crash-torn tail (a typed TornTailError in the
//     RecoveryInfo) and failing closed on MAC or sequence violations.
//  4. Re-read a sample of the replayed lines through the integrity tree,
//     so tampered at-rest state surfaces as *secmem.IntegrityError now,
//     not at first client read.
//  5. Only then write: truncate each live segment's torn tail, delete the
//     temp files, the files from other epochs and the next-epoch segments past
//     each shard's last record, and reopen each shard's last segment for
//     append. A recovery
//     refused at any step before this one leaves every file as it was.
func Open(shcfg shard.Config, cfg Config) (*Memory, *RecoveryInfo, error) {
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
	segs := make([][]uint64, shcfg.Shards) // each shard's segment epochs
	var head uint64
	var stale []string // temp files, deleted once recovery stands
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A temp file is a snapshot or delta whose write was cut by a
			// crash before the atomic rename; it never became current.
			stale = append(stale, name)
			continue
		}
		if s, b, ok := ckpt.ParseDeltaName(name); ok {
			deltaEntries[s] = ckpt.Entry{Seq: s, Base: b}
			head = max(head, s)
			continue
		}
		if seq, i, isSnap, ok := parseSeq(name); ok && isSnap {
			snaps[seq] = true
			head = max(head, seq)
		} else if ok && i < shcfg.Shards {
			segs[i] = append(segs[i], seq)
		}
	}

	sh, err := shard.New(shcfg)
	if err != nil {
		return nil, nil, err
	}
	if err := checkTenants(cfg.Dir, shcfg, head == 0); err != nil {
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
		tracer:    cfg.Obs.Tracer(),
	}
	info := &RecoveryInfo{Fresh: head == 0}
	if info.Fresh {
		// Fresh directory: bootstrap epoch 1, a full cut of the empty
		// engines, so recovery always starts from a snapshot — this one,
		// read back like any other.
		cuts := make([]*secmem.Cut, shcfg.Shards)
		for i := range cuts {
			if cuts[i], err = sh.Shard(i).BeginFullCut(); err != nil {
				return nil, nil, err
			}
		}
		if _, err := m.persist(ckpt.DeltaHeader{Seq: 1, CoveredLSN: make([]uint64, shcfg.Shards)}, cuts); err != nil {
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
	var baseCovered, covered []uint64
	replayed := sample{stride: 1}
	for _, ent := range append([]ckpt.Entry{{Seq: baseSeq}}, chain...) {
		path := SnapshotPath(cfg.Dir, ent.Seq)
		if ent.Base != 0 {
			path = ckpt.DeltaPath(cfg.Dir, ent.Seq, ent.Base)
		}
		hdr, err := readState(path, shcfg, ent.Seq, ent.Base, func(i int, batch []secmem.DirtyLine) error {
			if ent.Base != 0 {
				info.DeltaLines += len(batch)
				for _, d := range batch {
					if d.Level == -1 {
						// A delta's data lines join the sample verified below.
						replayed.add((d.Index*uint64(shcfg.Shards) + uint64(i)) * LineBytes)
					}
				}
			}
			return sh.Shard(i).Apply(batch)
		})
		if err != nil {
			return nil, nil, fmt.Errorf("durable: %w", err)
		}
		if covered = hdr.CoveredLSN; ent.Base == 0 {
			baseCovered = covered
		} else {
			info.DeltasApplied++
		}
	}
	m.seq.Store(head)
	m.baseSeq.Store(baseSeq)
	info.SnapshotSeq = baseSeq
	info.CoveredLSN = append([]uint64(nil), covered...)
	info.TornTails = make([]*wal.TornTailError, shcfg.Shards)

	m.commits = make([]*committer, shcfg.Shards)
	var torn []*wal.TornTailError // each live segment's, cut once recovery stands
	for i := range m.commits {
		m.commits[i] = &committer{shard: i, eng: sh.Shard(i)}
		live, err := m.commits[i].replay(m, baseSeq, baseCovered[i], covered[i], segs[i], info, &replayed)
		if err != nil {
			return nil, nil, err
		}
		if live != nil {
			torn = append(torn, live)
		}
	}

	// Sample-verify replayed lines through the integrity tree: every
	// line read here re-verifies its whole MAC chain up to the
	// on-chip root, so a consistent-looking but tampered snapshot or
	// WAL fails closed before the memory serves a single request.
	held := replayed.addrs
	n := min(len(held), verifySample)
	for i := range n {
		if _, err := sh.Read(held[i*len(held)/n]); err != nil {
			return nil, nil, err
		}
	}
	info.SampleVerified = n

	for _, tail := range torn {
		if err := os.Truncate(tail.Path, tail.Offset); err != nil {
			return nil, nil, fmt.Errorf("durable: truncate torn tail of %s: %w", tail.Path, err)
		}
	}
	for _, name := range stale {
		// A fresh bootstrap may have reused and renamed the name already.
		if err := os.Remove(filepath.Join(cfg.Dir, name)); err != nil && !os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("durable: remove stale %s: %w", name, err)
		}
	}
	// Retire every file outside the head's chain (orphan deltas, superseded
	// epochs) and the next-epoch segments past each shard's last record — a
	// crash mid-checkpoint's litter — then reopen each shard's last segment
	// for append: creating it in a directory that has only its snapshot yet,
	// which is why the directory is synced after.
	if err := m.removeEpochsBelow(head); err != nil {
		return nil, nil, err
	}
	for i, c := range m.commits {
		l, err := wal.Open(SegmentPath(cfg.Dir, c.seq, i), wal.Options{Key: walKey(shcfg.Mem.Key, i, c.seq)})
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

// readState reads the state stream at path, of epoch seq against base,
// handing fn each shard's lines a batch at a time. A stream of another shard
// count is a *shard.MismatchError: its header has authenticated, so this is
// an operator config mismatch, not tampering.
func readState(path string, shcfg shard.Config, seq, base uint64, fn func(i int, batch []secmem.DirtyLine) error) (ckpt.DeltaHeader, error) {
	return ckpt.ReadDelta(path, deltaKey(shcfg.Mem.Key), seq, base, func(hdr ckpt.DeltaHeader, i int, r io.Reader) error {
		if n := len(hdr.CoveredLSN); n != shcfg.Shards {
			return &shard.MismatchError{Field: "shards", Stream: uint64(n), Config: uint64(shcfg.Shards)}
		}
		return secmem.ReadRecords(r, func(batch []secmem.DirtyLine) error { return fn(i, batch) })
	})
}

// replay replays the shard's segments from the base epoch's on, in epoch
// order, each from where the one before it ended: record coveredBase+1 opens
// the base's, and records past covered are read and applied, those up to it
// counted from each file's size. A segment that ends inside that covered
// prefix (a *wal.ShortSegmentError) refuses recovery unless a later segment
// follows it. A gap or an overlap between two is the LSN check's
// *secmem.IntegrityError, and so is a record behind a torn tail: a crash
// tears only the end of the journal, since a shard flushes its old segment
// before its first frame of the next. The last segment that holds a record
// (the base's, if none does) is the live one, and the sweep deletes the
// next-epoch segments past it, which hold no record. replay writes nothing:
// it offers each address it replayed to the sample and returns the live
// segment's torn tail, for Open to truncate.
func (c *committer) replay(m *Memory, base, coveredBase, covered uint64, segs []uint64, info *RecoveryInfo, replayed *sample) (live *wal.TornTailError, err error) {
	epochs := []uint64{base}
	for _, seq := range segs {
		if seq > base {
			epochs = append(epochs, seq)
		}
	}
	slices.Sort(epochs)
	c.seq, c.baseLSN = base, coveredBase
	var torn *wal.TornTailError
	next := coveredBase + 1
	for e, seq := range epochs {
		path := SegmentPath(m.cfg.Dir, seq, c.shard)
		winfo, err := wal.ReplayTail(path, wal.Options{Key: walKey(m.shcfg.Mem.Key, c.shard, seq)}, next, covered+1, func(r wal.Record) error {
			info.ReplayedRecords++
			if err := c.check(m, r); err != nil {
				return err
			}
			if err := m.sh.Write(r.Addr, r.Line); err != nil {
				return err
			}
			replayed.add(r.Addr)
			return nil
		})
		var short *wal.ShortSegmentError
		if errors.As(err, &short) && e < len(epochs)-1 {
			// A full checkpoint that failed rotated the shard past this
			// segment, and the chain covers records of the next one.
			err = nil
		}
		if err != nil {
			return nil, err
		}
		info.FramesAuthenticated += winfo.Authenticated
		info.BytesRead += winfo.BytesRead
		if torn != nil && winfo.Records > 0 {
			return nil, &secmem.IntegrityError{Level: -1, Index: next,
				Reason: fmt.Sprintf("wal segment %s holds records past a torn tail of %s", path, torn.Path)}
		}
		torn = cmp.Or(torn, winfo.TornTail)
		if winfo.Records == 0 && seq > base {
			continue
		}
		if seq > base {
			c.older = append(c.older, segment{c.seq, c.baseLSN})
		}
		c.seq, c.baseLSN, live = seq, next-1, winfo.TornTail
		next = winfo.LastLSN + 1
	}
	// The delta cut fsyncs its covered prefix, so a surviving segment never
	// ends below the chain's watermark; the max guards an empty tail all the
	// same.
	c.lsn = max(next-1, covered)
	c.synced = c.lsn
	info.TornTails[c.shard] = torn
	return live, nil
}

// sample holds every stride-th address recovery replayed; at 2×verifySample
// it drops every other one and doubles the stride, so it stays spread over
// the whole replay.
type sample struct {
	addrs        []uint64
	stride, seen uint64
}

func (s *sample) add(addr uint64) {
	if s.seen%s.stride == 0 {
		s.addrs = append(s.addrs, addr)
		if len(s.addrs) == 2*verifySample {
			for i := range verifySample {
				s.addrs[i] = s.addrs[2*i]
			}
			s.addrs, s.stride = s.addrs[:verifySample], 2*s.stride
		}
	}
	s.seen++
}
