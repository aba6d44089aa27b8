package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/wal"
)

// This file is the durability layer's replication tap: the primary side
// reads durable records from a per-shard cursor (in-memory ring, falling
// back to the live segment via wal.ReplayRange), and the replica side
// journals + applies a received batch so its own recovered LSN vector IS
// its replication watermark — a replica crash resumes streaming from
// whatever its local WAL proves durable, with no extra cursor state.

// pushRingLocked appends rec to the replication ring, dropping the oldest
// half-capacity chunk when the backing slice reaches twice the configured
// capacity (amortized O(1) per push). Called with c.mu held.
func (c *committer) pushRingLocked(rec wal.Record, capRecords int) {
	if capRecords <= 0 {
		return
	}
	if len(c.ring) == 0 {
		c.ringStart = rec.LSN
	}
	c.ring = append(c.ring, rec)
	if len(c.ring) >= 2*capRecords {
		drop := len(c.ring) - capRecords
		fresh := make([]wal.Record, capRecords)
		copy(fresh, c.ring[drop:])
		c.ring = fresh
		c.ringStart += uint64(drop)
	}
}

// DurableSignal returns a channel closed the next time any record becomes
// durable (group-commit fsync or checkpoint). The replication long-poll
// waits on it instead of spinning; re-arm by calling again after a close.
func (m *Memory) DurableSignal() <-chan struct{} {
	m.sigMu.Lock()
	defer m.sigMu.Unlock()
	if m.sigCh == nil {
		m.sigCh = make(chan struct{})
	}
	return m.sigCh
}

func (m *Memory) signalDurable() {
	m.sigMu.Lock()
	if m.sigCh != nil {
		close(m.sigCh)
		m.sigCh = nil
	}
	m.sigMu.Unlock()
}

// SyncedLSNs returns the per-shard durable watermark vector: the highest
// LSN each shard has fsynced. This is what a node advertises to the
// cluster — both as a replica's replication cursor and as the primary's
// shipping limit (only durable records are ever streamed).
func (m *Memory) SyncedLSNs() []uint64 {
	out := make([]uint64, len(m.commits))
	for i, c := range m.commits {
		c.syncMu.Lock()
		out[i] = c.synced
		c.syncMu.Unlock()
	}
	return out
}

// AppliedLSNs returns the per-shard last-assigned LSN vector (records
// applied to the engine, durable or not).
func (m *Memory) AppliedLSNs() []uint64 {
	out := make([]uint64, len(m.commits))
	for i, c := range m.commits {
		c.mu.Lock()
		out[i] = c.lsn
		c.mu.Unlock()
	}
	return out
}

// errStopRange aborts a ReplayRange scan once the batch is full; it never
// escapes ReadRecords.
var errStopRange = errors.New("durable: stop range scan")

// ReadRecords returns up to max durable records for shardIdx with LSN >
// afterLSN, in order. The second result reports whether the cursor could
// be served at all: false means the history before afterLSN+1 has been
// truncated by a checkpoint (or the epoch changed mid-scan) and the
// follower needs a snapshot bootstrap. An empty batch with ok=true means
// the follower is caught up.
func (m *Memory) ReadRecords(shardIdx int, afterLSN uint64, max int) ([]wal.Record, bool, error) {
	if shardIdx < 0 || shardIdx >= len(m.commits) {
		return nil, false, fmt.Errorf("durable: shard %d out of range [0, %d)", shardIdx, len(m.commits))
	}
	if max <= 0 {
		max = 512
	}
	c := m.commits[shardIdx]
	c.syncMu.Lock()
	durable := c.synced
	c.syncMu.Unlock()
	if afterLSN >= durable {
		return nil, true, nil
	}
	// Segments belong to the base epoch (delta checkpoints advance seq
	// without rotating segments), so the file fallback reads at segSeq.
	seqBefore := m.segSeq.Load()
	c.mu.Lock()
	if len(c.ring) > 0 && afterLSN+1 >= c.ringStart {
		start := int(afterLSN + 1 - c.ringStart)
		out := make([]wal.Record, 0, max)
		for _, r := range c.ring[start:] {
			if r.LSN > durable || len(out) >= max {
				break
			}
			out = append(out, r)
		}
		c.mu.Unlock()
		return out, true, nil
	}
	base := c.baseLSN
	c.mu.Unlock()
	if afterLSN < base {
		// The snapshot that opened this epoch already covers LSNs past the
		// cursor; the records are gone from the log.
		return nil, false, nil
	}
	// File fallback: scan the live segment from the cursor. Records at or
	// below the durable watermark occupy a complete, fully-flushed prefix,
	// so a torn tail can only appear past what we deliver.
	path := SegmentPath(m.cfg.Dir, seqBefore, shardIdx)
	opt := wal.Options{Key: walKey(m.shcfg.Mem.Key, shardIdx, seqBefore)}
	out := make([]wal.Record, 0, max)
	_, err := wal.ReplayRange(path, opt, base+1, afterLSN+1, func(r wal.Record) error {
		if r.LSN > durable || len(out) >= max {
			return errStopRange
		}
		out = append(out, r)
		return nil
	})
	if err != nil && !errors.Is(err, errStopRange) {
		return nil, false, err
	}
	if m.segSeq.Load() != seqBefore {
		// A checkpoint swapped segments mid-scan; the file we read may have
		// been truncated or removed. Ask the follower to retry.
		return nil, false, nil
	}
	return out, true, nil
}

// ApplyReplicated journals a batch of replicated records into the local WAL
// (re-sealed under this node's segment keys), applies the writes to the
// engine, and group-commits the batch durable. Records must continue the
// shard's LSN sequence exactly; a gap is a replication-protocol violation,
// not tampering, and is reported as a plain error.
func (m *Memory) ApplyReplicated(shardIdx int, recs []wal.Record) error {
	if m.closed.Load() {
		return fmt.Errorf("durable: apply after Close")
	}
	if shardIdx < 0 || shardIdx >= len(m.commits) {
		return fmt.Errorf("durable: shard %d out of range [0, %d)", shardIdx, len(m.commits))
	}
	if len(recs) == 0 {
		return nil
	}
	c := m.commits[shardIdx]
	c.mu.Lock()
	for _, r := range recs {
		if r.LSN != c.lsn+1 {
			c.mu.Unlock()
			return fmt.Errorf("durable: replicated record LSN %d for shard %d, want %d (replication gap)", r.LSN, shardIdx, c.lsn+1)
		}
		if r.Kind == wal.KindWrite {
			j, _, err := m.sh.Locate(r.Addr)
			if err != nil {
				c.mu.Unlock()
				return &secmem.IntegrityError{Level: -1, Index: r.LSN,
					Reason: fmt.Sprintf("replicated record address %#x invalid: %v", r.Addr, err)}
			}
			if j != shardIdx {
				c.mu.Unlock()
				return &secmem.IntegrityError{Level: -1, Index: r.LSN,
					Reason: fmt.Sprintf("replicated record for shard %d delivered to shard %d", j, shardIdx)}
			}
		}
		if err := c.log.Append(r); err != nil {
			c.mu.Unlock()
			return err
		}
		c.lsn = r.LSN
		c.pushRingLocked(r, m.cfg.ReplHistory)
		// The overflow/rebase audit records a primary of an earlier version
		// journaled ride along verbatim and apply as no-ops, as in recovery.
		if r.Kind == wal.KindWrite {
			c.writes++
			if err := m.sh.Write(r.Addr, r.Line); err != nil {
				c.mu.Unlock()
				return err
			}
			m.appends.Add(1)
		}
	}
	last := c.lsn
	c.mu.Unlock()
	return c.syncTo(m, last)
}

// SaveMarks freezes the memory, flushes every journaled record durable, and
// streams the full state to w as the state stream a follower lands as its
// snapshot 1 — authenticated like a snapshot file, its coverage header the
// per-shard LSN vector it covers, which is also returned. A cold or diverged
// follower bootstraps from exactly this pair via InstallSnapshot.
func (m *Memory) SaveMarks(w io.Writer) ([]uint64, error) {
	if m.closed.Load() {
		return nil, fmt.Errorf("durable: save after Close")
	}
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	defer m.freeze()()
	marks := make([]uint64, len(m.commits))
	for i, c := range m.commits {
		if err := c.fsyncLocked(m); err != nil {
			return nil, err
		}
		marks[i] = c.lsn
	}
	hdr := ckpt.DeltaHeader{Seq: 1, CoveredLSN: marks, CoveredWrites: make([]uint64, len(marks))}
	if err := ckpt.WriteState(new(ckpt.StreamWriter), w, deltaKey(m.shcfg.Mem.Key), hdr, m.engines()); err != nil {
		return nil, err
	}
	return marks, nil
}

// InstallSnapshot replaces m, state and data directory, with a SaveMarks pair,
// and returns the memory recovered from it. The blob is authenticated and
// decoded whole, and its coverage header held to marks (which came beside it,
// unauthenticated), before anything is touched: a refused blob leaves m open
// and serving. Then m is closed, its directory's durable state discarded, the
// blob landed as snapshot 1 and Open recovers from it like from any other, so
// replication resumes at exactly marks. The per-shard write counters restart
// at zero (they feed stats, not recovery).
func (m *Memory) InstallSnapshot(blob io.Reader, marks []uint64) (*Memory, error) {
	raw, err := io.ReadAll(blob)
	if err != nil {
		return nil, fmt.Errorf("durable: install snapshot: %w", err)
	}
	hdr, err := ckpt.ReadState(bytes.NewReader(raw), int64(len(raw)), deltaKey(m.shcfg.Mem.Key), 1, 0, func(_ ckpt.DeltaHeader, _ int, r io.Reader) error {
		return secmem.ReadRecords(r, func([]secmem.DirtyLine) error { return nil })
	})
	if err != nil {
		return nil, fmt.Errorf("durable: install snapshot: %w", err)
	}
	if len(marks) != len(m.commits) || !slices.Equal(hdr.CoveredLSN, marks) {
		return nil, fmt.Errorf("durable: install snapshot: the blob covers %v, it came with marks %v for %d shards", hdr.CoveredLSN, marks, len(m.commits))
	}
	_ = m.Close() // what a failed flush loses is being discarded
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("durable: scan %s: %w", m.cfg.Dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		_, _, _, known := parseSeq(name)
		if !known && !strings.HasSuffix(name, ".tmp") {
			continue
		}
		if err := os.Remove(filepath.Join(m.cfg.Dir, name)); err != nil {
			return nil, fmt.Errorf("durable: discard %s: %w", name, err)
		}
	}
	if err := ckpt.WriteFile(SnapshotPath(m.cfg.Dir, 1), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	}); err != nil {
		return nil, err
	}
	fresh, _, err := Open(m.shcfg, m.cfg)
	return fresh, err
}
