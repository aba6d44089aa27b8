package durable

import (
	"fmt"
	"os"
	"time"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/wal"
)

// Checkpoint cuts a full checkpoint: snapshot.<seq>, every stored line, the
// base a new delta chain starts from; each shard's journal rotates to a fresh
// segment of the new epoch as its cut begins. Only once the snapshot is
// renamed are older epochs' files deleted (snapshot-before-truncate). Any
// OnCheckpoint hook fires once the new epoch is committed (even if retiring
// old files reported an error — the epoch stands either way).
func (m *Memory) Checkpoint() error {
	before := m.seq.Load()
	err := m.checkpoint(true)
	if after := m.seq.Load(); after > before && m.onCkpt != nil {
		m.onCkpt(after)
	}
	return err
}

// CheckpointDelta cuts an incremental checkpoint: the lines modified since
// the previous checkpoint (full or delta), chained to it by epoch. It rotates
// no segment, and recovery replays base + delta chain + the segments' tail
// past the chain's covered LSN.
//
// An idle store cuts nothing: when no shard has a line modified since the
// last checkpoint — every cut holds its root alone — there is no file, the
// epoch stays and the cuts are aborted, so a background cadence costs a store
// nobody writes to a count of its chunks and no I/O.
func (m *Memory) CheckpointDelta() error { return m.checkpoint(false) }

// checkpoint is the one cut path; a full checkpoint's differs in its floor
// (0: every stored line) and in rotating segments.
//
// Nothing is frozen and nothing is copied. A shard's locks are held only
// while its cut begins — its covered LSN is read, its lines are counted and,
// for a full cut, its journal swapped — and one shard at a time, because
// recovery replays each shard's segments from that shard's own covered LSN
// and never relates two shards' positions. The lines are then streamed into
// the file from the live store, a chunk at a time, while writers carry on; a
// line about to be overwritten before it is streamed is set aside by its
// writer (secmem.Cut). A crash at any point leaves either no new file (a .tmp
// recovery sweeps) or a complete, authenticated one; the dirty floor only
// advances after the rename, and a failure anywhere aborts every cut, so the
// next one takes the same lines again.
func (m *Memory) checkpoint(full bool) error {
	start := time.Now()
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	// Under ckptMu, which Close holds while it closes the journals: a cut
	// that waited out a Close must not write behind it.
	if m.closed.Load() {
		return fmt.Errorf("durable: checkpoint after Close")
	}

	hdr := ckpt.DeltaHeader{Seq: m.seq.Load() + 1, Base: m.seq.Load(), CoveredLSN: make([]uint64, len(m.commits))}
	var rotate uint64
	if full {
		// One past every segment on disk too: a full checkpoint that failed
		// after some shards rotated left them on segments of its epoch.
		for _, c := range m.commits {
			hdr.Seq = max(hdr.Seq, c.seq+1)
		}
		hdr.Base, rotate = 0, hdr.Seq
	}
	cuts := make([]*secmem.Cut, 0, len(m.commits))
	idle := !full
	defer func() {
		for _, cut := range cuts {
			cut.Abort() // does nothing to a committed cut
		}
	}()
	for i, c := range m.commits {
		cut, lsn, err := c.beginCut(m, rotate)
		if cut != nil {
			cuts = append(cuts, cut)
		}
		if err != nil {
			return err
		}
		hdr.CoveredLSN[i] = lsn
		idle = idle && cut.N() == 1
	}
	if idle {
		return nil
	}

	// The stream claims coverage up to covered[i]; fsync that prefix so a
	// post-crash segment never ends below it (replay past the chain needs
	// a contiguous tail). This is a plain group commit, and a rotation has
	// already made it.
	for i, c := range m.commits {
		if err := c.syncTo(m, hdr.CoveredLSN[i]); err != nil {
			return err
		}
	}
	path, err := m.persist(hdr, cuts)
	if err != nil {
		return err
	}

	// The file is durable and its cuts committed: advance the epoch.
	compacted := m.seq.Load() > m.baseSeq.Load()
	m.seq.Store(hdr.Seq)
	if full {
		m.baseSeq.Store(hdr.Seq)
		for _, c := range m.commits {
			c.mu.Lock()
			c.older = nil // removed next
			c.mu.Unlock()
		}
		m.checkpoints.Add(1)
		if compacted {
			m.compactions.Add(1)
		}
	}
	err = m.removeEpochsBelow(hdr.Seq)
	dur := time.Since(start)
	if full {
		m.ckptLat.Record(dur)
		m.tracer.Emit(obs.KindSnapshot, -1, hdr.Seq, 0, dur)
		return err
	}
	var total uint64
	for _, cut := range cuts {
		total += uint64(cut.N())
	}
	m.deltaCkpts.Add(1)
	if st, serr := os.Stat(path); serr == nil {
		m.deltaBytes.Add(uint64(st.Size()))
	}
	m.deltaLat.Record(dur)
	m.tracer.Emit(obs.KindDeltaCkpt, -1, hdr.Seq, total, dur)
	return err
}

// persist lands the cuts as the state stream hdr names — snapshot.<seq>
// against base 0, delta.<seq>.<base> otherwise — and commits them once its
// directory entry is durable. It returns the file's path.
func (m *Memory) persist(hdr ckpt.DeltaHeader, cuts []*secmem.Cut) (string, error) {
	path := ckpt.DeltaPath(m.cfg.Dir, hdr.Seq, hdr.Base)
	if hdr.Base == 0 {
		path = SnapshotPath(m.cfg.Dir, hdr.Seq)
	}
	if m.persisting != nil {
		m.persisting()
	}
	if err := ckpt.WriteDelta(&m.sw, path, deltaKey(m.shcfg.Mem.Key), hdr, cuts); err != nil {
		return "", err
	}
	if err := wal.SyncDir(m.cfg.Dir); err != nil {
		return "", err
	}
	for _, cut := range cuts {
		cut.Commit()
	}
	return path, nil
}

// beginCut opens a cut of the shard's engine and returns the journal position
// it holds exactly: both are taken under the shard's locks (sync, then append,
// syncTo's order), and no other shard's. With rotate > 0 the cut is full, and
// the same hold of mu swaps the journal to a fresh segment of epoch rotate;
// syncMu is kept until the old segment is whole on disk and the new one's
// directory entry durable, so no record of the new segment is acknowledged
// before every record of the old one is, now or — should the fsync or the
// directory sync fail — ever (c.failed). A cut is returned with an error only
// when the swap has happened: the caller aborts it.
func (c *committer) beginCut(m *Memory, rotate uint64) (cut *secmem.Cut, lsn uint64, err error) {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	if c.failed != nil {
		return nil, 0, c.failed
	}
	if rotate == 0 {
		c.mu.Lock()
		defer c.mu.Unlock()
		cut, err = c.eng.BeginCut()
		return cut, c.lsn, err
	}
	nl, err := wal.Create(SegmentPath(m.cfg.Dir, rotate, c.shard), wal.Options{Key: walKey(m.shcfg.Mem.Key, c.shard, rotate)})
	if err != nil {
		return nil, 0, err
	}
	c.mu.Lock()
	old := c.log
	if cut, err = c.eng.BeginFullCut(); err == nil {
		// Flushed under mu: no frame of the new segment reaches its file
		// before every frame of the old one has reached the old one's.
		if err = old.Flush(); err != nil {
			cut.Abort()
		}
	}
	if err != nil {
		c.mu.Unlock()
		_ = nl.Close()
		_ = os.Remove(nl.Path())
		return nil, 0, err
	}
	c.older = append(c.older, segment{c.seq, c.baseLSN})
	c.log, c.seq, c.baseLSN = nl, rotate, c.lsn
	lsn = c.lsn
	c.mu.Unlock()
	if err = old.Close(); err == nil {
		err = wal.SyncDir(m.cfg.Dir)
	}
	if err != nil {
		c.failed = fmt.Errorf("durable: shard %d rotated to epoch %d: %w", c.shard, rotate, err)
		return cut, lsn, c.failed
	}
	c.synced = lsn
	m.signalDurable()
	return cut, lsn, nil
}
