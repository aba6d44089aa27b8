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

// CheckpointDelta cuts an incremental checkpoint: the lines modified since
// the previous checkpoint (full or delta), chained to it by epoch. Unlike
// Checkpoint it does not rotate WAL segments — segments stay keyed to the
// base snapshot's epoch, and recovery replays base + delta chain + the
// segment tail past the chain's covered LSN.
//
// Nothing is frozen and nothing is copied. A shard's locks are held only
// while its cut begins — its covered LSN is read and its dirty lines are
// counted — and one shard at a time, because recovery replays each shard's
// tail from that shard's own covered LSN and never relates two shards'
// positions. The lines are then streamed into the delta file from the live
// store, a chunk at a time, while writers carry on; a line about to be
// overwritten before it is streamed is set aside by its writer (secmem.Cut).
// The WAL fsync that makes the covered prefix durable rides the ordinary
// group-commit path. A crash at any point leaves either no delta (a .tmp
// recovery sweeps) or a complete, authenticated one; the dirty floor only
// advances after the rename, and a failure anywhere aborts every cut, so the
// next one takes the same lines again.
//
// An idle store cuts nothing: when no shard has a line modified since the
// last checkpoint — every cut holds its root alone — there is no file, the
// epoch stays and the cuts are aborted, so a background cadence costs a store
// nobody writes to a count of its chunks and no I/O.
func (m *Memory) CheckpointDelta() error {
	start := time.Now()
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	// Under ckptMu, which Close holds while it closes the journals: a cut
	// that waited out a Close must not write behind it.
	if m.closed.Load() {
		return fmt.Errorf("durable: delta checkpoint after Close")
	}

	covered := make([]uint64, len(m.commits))
	coveredWrites := make([]uint64, len(m.commits))
	cuts := make([]*secmem.Cut, 0, len(m.commits))
	idle := true
	defer func() {
		for _, cut := range cuts {
			cut.Abort() // does nothing to a committed cut
		}
	}()
	for i, c := range m.commits {
		cut, lsn, writes, err := c.beginCut()
		if err != nil {
			return err
		}
		cuts = append(cuts, cut)
		covered[i], coveredWrites[i] = lsn, writes
		idle = idle && cut.N() == 1
	}
	if idle {
		return nil
	}

	// The delta claims coverage up to covered[i]; fsync that prefix so a
	// post-crash segment never ends below it (replay past the chain needs
	// a contiguous tail). This is a plain group commit.
	for i, c := range m.commits {
		if err := c.syncTo(m, covered[i]); err != nil {
			return err
		}
	}

	oldSeq := m.seq.Load()
	newSeq := oldSeq + 1
	hdr := ckpt.DeltaHeader{Seq: newSeq, Base: oldSeq, CoveredLSN: covered, CoveredWrites: coveredWrites}
	path := ckpt.DeltaPath(m.cfg.Dir, newSeq, oldSeq)
	if err := ckpt.WriteDelta(&m.deltaSW, path, deltaKey(m.shcfg.Mem.Key), hdr, cuts); err != nil {
		return err
	}
	if err := wal.SyncDir(m.cfg.Dir); err != nil {
		return err
	}

	// The delta is durable: commit the dirty floor and advance the epoch.
	var total uint64
	for _, cut := range cuts {
		cut.Commit()
		total += uint64(cut.N())
	}
	m.seq.Store(newSeq)
	m.deltaCkpts.Add(1)
	if st, err := os.Stat(path); err == nil {
		m.deltaBytes.Add(uint64(st.Size()))
	}
	var firstErr error
	if err := m.removeEpochsBelow(newSeq); err != nil {
		firstErr = err
	}
	dur := time.Since(start)
	m.deltaLat.Record(dur)
	m.tracer.Emit(obs.KindDeltaCkpt, -1, newSeq, total, dur)
	return firstErr
}

// beginCut opens a cut of the shard's engine and returns the journal position
// it holds exactly: both are taken under the shard's locks (sync, then append,
// syncTo's order), and no other shard's.
func (c *committer) beginCut() (cut *secmem.Cut, lsn, writes uint64, err error) {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	cut, err = c.eng.BeginCut()
	return cut, c.lsn, c.writes, err
}
