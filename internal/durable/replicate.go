package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/wal"
)

// This file is the durability layer's replication tap: the primary side
// reads durable records from a per-shard cursor (in-memory tail, falling
// back to a positional read of the segment that holds them, wal.ReadRange),
// and the replica side journals + applies a received batch so its own
// recovered LSN vector IS its replication watermark — a replica crash
// resumes streaming from whatever its local WAL proves durable, with no extra
// cursor state. A replica with no usable cursor bootstraps from the primary's
// base snapshot file, read a page at a time, and resumes at the marks its
// coverage header holds: the base epoch's segments hold every record past
// them.

// tailRecords is how many of its latest records a shard keeps in memory once
// its cursor has been read. The tail is made tailChunk slots at a time, as
// records first land in them, so polling a shard nobody writes costs nothing.
const tailRecords, tailChunk = 4096, 256

// tailSlot is one record of a shard's replication tail.
type tailSlot struct {
	lsn, addr uint64
	line      [LineBytes]byte
}

// pushTailLocked copies record lsn over the one tailRecords before it, once a
// poll has made the shard's tail. Called with c.mu held, in LSN order.
func (c *committer) pushTailLocked(lsn, addr uint64, line []byte) {
	if c.polled {
		chunk := &c.tail[lsn%tailRecords/tailChunk]
		if *chunk == nil {
			*chunk = new([tailChunk]tailSlot)
		}
		s := &(*chunk)[lsn%tailChunk]
		s.lsn, s.addr = lsn, addr
		copy(s.line[:], line)
	}
}

// tailSlotLocked returns the slot that holds record lsn, or nil when the tail
// does not hold it. Called with c.mu held.
func (c *committer) tailSlotLocked(lsn uint64) *tailSlot {
	if chunk := c.tail[lsn%tailRecords/tailChunk]; chunk != nil && chunk[lsn%tailChunk].lsn == lsn {
		return &chunk[lsn%tailChunk]
	}
	return nil
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

// ReadRecords calls fn, under none of the shard's locks, for up to max (> 0)
// durable records of shardIdx with LSN > afterLSN, in order; a record is valid
// only until fn returns. It returns false when the history before afterLSN+1
// has been truncated by a checkpoint (or the epoch changed mid-read): the
// follower needs a snapshot bootstrap, and drops what fn was given. True and
// no call to fn means the follower is caught up.
func (m *Memory) ReadRecords(shardIdx int, afterLSN uint64, max int, fn func(wal.Record) error) (bool, error) {
	if shardIdx < 0 || shardIdx >= len(m.commits) {
		return false, fmt.Errorf("durable: shard %d out of range [0, %d)", shardIdx, len(m.commits))
	}
	c := m.commits[shardIdx]
	c.syncMu.Lock()
	durable := c.synced
	c.syncMu.Unlock()
	c.mu.Lock()
	c.polled = true // from the first read on; records journaled before are in the segments
	if afterLSN >= durable {
		c.mu.Unlock()
		return true, nil
	}
	// The tail holds its records contiguously up to c.lsn, so it serves the
	// cursor when it still holds the record past it. Its slots are copied
	// under the lock and handed to fn after it.
	if from := afterLSN + 1; c.tailSlotLocked(from) != nil {
		slots := make([]tailSlot, min(durable-afterLSN, uint64(max)))
		for i := range slots {
			slots[i] = *c.tailSlotLocked(from + uint64(i))
		}
		c.mu.Unlock()
		for i := range slots {
			s := &slots[i]
			if err := fn(wal.Record{Kind: wal.KindWrite, LSN: s.lsn, Addr: s.addr, Line: s.line[:]}); err != nil {
				return false, err
			}
		}
		return true, nil
	}
	// The segment that holds record afterLSN+1, and the LSN it ends at: the
	// live one, which a full checkpoint swaps at the shard's cut, or one
	// below it that stays on disk until a full checkpoint renames.
	seg, end := segment{c.seq, c.baseLSN}, durable
	for i := len(c.older) - 1; i >= 0 && afterLSN < seg.base; i-- {
		seg, end = c.older[i], min(durable, seg.base)
	}
	c.mu.Unlock()
	if afterLSN < seg.base {
		// A checkpoint's snapshot covers the records past the cursor.
		return false, nil
	}
	// File fallback: read the records past the cursor where they lie in
	// that segment. Records at or below the durable watermark occupy a
	// complete, fully-flushed prefix of whole frames.
	opt := wal.Options{Key: walKey(m.shcfg.Mem.Key, shardIdx, seg.seq)}
	err := wal.ReadRange(SegmentPath(m.cfg.Dir, seg.seq, shardIdx), opt, seg.base+1, afterLSN+1, int(min(end-afterLSN, uint64(max))), fn)
	c.mu.Lock()
	gone := seg.seq < c.seq && (len(c.older) == 0 || seg.seq < c.older[0].seq)
	c.mu.Unlock()
	if gone {
		// A full checkpoint renamed mid-read; the file we read may have
		// been removed. Ask the follower to retry.
		return false, nil
	}
	return err == nil, err
}

// ApplyReplicated decodes batch, frames sealed under codec from LSN firstLSN
// on, and journals (re-sealed under this node's keys) and applies each record
// as its frame authenticates, as a write is; then it group-commits them. A
// batch that does not continue the shard's LSNs is a protocol error, not
// tampering, refused before a frame is read. A frame refused mid-batch ends
// it with its error, and the records before it are journaled, applied and
// durable, as a shorter batch's would be.
func (m *Memory) ApplyReplicated(shardIdx int, codec *wal.Codec, firstLSN uint64, batch []byte) error {
	if m.closed.Load() {
		return fmt.Errorf("durable: apply after Close")
	}
	if shardIdx < 0 || shardIdx >= len(m.commits) {
		return fmt.Errorf("durable: shard %d out of range [0, %d)", shardIdx, len(m.commits))
	}
	c := m.commits[shardIdx]
	c.mu.Lock()
	if firstLSN != c.lsn+1 {
		c.mu.Unlock()
		return fmt.Errorf("durable: replicated record LSN %d for shard %d, want %d (replication gap)", firstLSN, shardIdx, c.lsn+1)
	}
	_, err := codec.DecodeAll(batch, firstLSN, func(r wal.Record) error {
		// The decoder held r.LSN to firstLSN on, so it is c.lsn+1.
		if err := c.check(m, r); err != nil {
			return err
		}
		_, err := c.applyLocked(m, r.Addr, r.Line)
		return err
	})
	last := c.lsn
	c.mu.Unlock()
	if serr := c.syncTo(m, last); err == nil {
		err = serr
	}
	return err
}

// Page is one page of a base snapshot file, as ReadBasePage reads it: the
// base's epoch and size, where the page starts in it, and its bytes.
type Page struct {
	Seq, Size uint64
	Offset    uint64
	Data      []byte
}

// ReadBasePage reads the page at off of the base snapshot of epoch seq into
// buf — the base is the full image the live WAL segments start after, the
// file a follower bootstraps from. A renamed snapshot never changes, so the
// page is read where the file stands: under no commit lock, not ckptMu, and
// no cut, and nothing is kept between pages. When seq is no longer the base
// (0, or one a full checkpoint has since replaced), or off is past its end,
// the page is offset 0 of the current base: the follower starts its spool
// over.
func (m *Memory) ReadBasePage(seq, off uint64, buf []byte) (Page, error) {
	for {
		base := m.baseSeq.Load()
		if base != seq {
			off = 0
		}
		f, err := os.Open(SnapshotPath(m.cfg.Dir, base))
		if errors.Is(err, fs.ErrNotExist) && m.baseSeq.Load() != base {
			continue // a full checkpoint retired the base between the load and the open
		}
		if err != nil {
			return Page{}, fmt.Errorf("durable: base page: %w", err)
		}
		pg, err := readPage(f, base, off, buf)
		_ = f.Close() // opened read-only: a close loses nothing
		return pg, err
	}
}

func readPage(f *os.File, seq, off uint64, buf []byte) (Page, error) {
	st, err := f.Stat()
	if err != nil {
		return Page{}, fmt.Errorf("durable: base page: %w", err)
	}
	size := uint64(st.Size())
	if off >= size {
		off = 0
	}
	data := buf[:min(uint64(len(buf)), size-off)]
	if _, err := f.ReadAt(data, int64(off)); err != nil {
		return Page{}, fmt.Errorf("durable: base page at %d of %s: %w", off, f.Name(), err)
	}
	return Page{Seq: seq, Size: size, Offset: off, Data: data}, nil
}

// spoolName is the file a replica lands a bootstrap's pages in: a .tmp name
// no checkpoint writes, so Open sweeps one a crash left.
const spoolName = "bootstrap.tmp"

// SpoolPage writes one page of the primary's base snapshot at off into the
// data directory's spool; the page at offset 0 starts the spool over.
func (m *Memory) SpoolPage(off uint64, data []byte) error {
	flag := os.O_CREATE | os.O_WRONLY
	if off == 0 {
		flag |= os.O_TRUNC
	}
	return withSpool(m.cfg.Dir, flag, func(f *os.File) error {
		_, err := f.WriteAt(data, int64(off))
		return err
	})
}

// withSpool opens dir's spool with flag, runs fn on it and closes it.
func withSpool(dir string, flag int, fn func(f *os.File) error) error {
	f, err := os.OpenFile(filepath.Join(dir, spoolName), flag, 0o644)
	if err == nil {
		err = fn(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("durable: spool: %w", err)
	}
	return nil
}

// InstallSnapshot replaces m, state and data directory, with the base
// snapshot of epoch seq that SpoolPage has landed whole, and returns the
// memory recovered from it. The spool is authenticated and decoded first,
// under the context Open will read it in, while m goes on serving: a spool
// that is refused is deleted and leaves m open and serving. Then m is closed,
// every other file of its durable state discarded, the spool made durable as
// snapshot seq and Open recovers from it like from any other, so replication
// resumes at exactly the marks its coverage header holds.
func (m *Memory) InstallSnapshot(seq uint64) (*Memory, error) {
	spool := filepath.Join(m.cfg.Dir, spoolName)
	_, err := readState(spool, m.shcfg, seq, 0, func(int, []secmem.DirtyLine) error { return nil })
	if err != nil {
		_ = os.Remove(spool) // the next transfer starts a new one
		return nil, fmt.Errorf("durable: install snapshot: %w", err)
	}
	_ = m.Close() // what a failed flush loses is being discarded
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("durable: scan %s: %w", m.cfg.Dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		_, _, _, known := parseSeq(name)
		if name == spoolName || !known && !strings.HasSuffix(name, ".tmp") {
			continue
		}
		if err := os.Remove(filepath.Join(m.cfg.Dir, name)); err != nil {
			return nil, fmt.Errorf("durable: discard %s: %w", name, err)
		}
	}
	if err := withSpool(m.cfg.Dir, os.O_WRONLY, (*os.File).Sync); err != nil {
		return nil, err
	}
	if err := os.Rename(spool, SnapshotPath(m.cfg.Dir, seq)); err != nil {
		return nil, fmt.Errorf("durable: install snapshot: %w", err)
	}
	if err := wal.SyncDir(m.cfg.Dir); err != nil {
		return nil, err
	}
	fresh, _, err := Open(m.shcfg, m.cfg)
	return fresh, err
}
