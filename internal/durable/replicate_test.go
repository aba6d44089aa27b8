package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/invariant"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/racedetect"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wal"
)

// replPair opens a primary and a cold replica (own dir) over the same shard
// geometry.
func replPair(t *testing.T, shards int) (*Memory, *Memory) {
	t.Helper()
	shcfg := testShardConfig(t, shards, 64<<10)
	p, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncAlways})
	r, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncAlways})
	t.Cleanup(func() { _ = p.Close(); _ = r.Close() })
	return p, r
}

// replCodec is the codec the tests seal replicated batches under.
func replCodec(t testing.TB) *wal.Codec {
	t.Helper()
	c, err := wal.NewCodec(wal.Options{Key: []byte("replication-test")})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// readRecords is m.ReadRecords collecting what it reads, each Line copied.
func readRecords(m *Memory, shardIdx int, afterLSN uint64, max int) ([]wal.Record, bool, error) {
	var recs []wal.Record
	ok, err := m.ReadRecords(shardIdx, afterLSN, max, func(r wal.Record) error {
		r.Line = slices.Clone(r.Line)
		recs = append(recs, r)
		return nil
	})
	return recs, ok, err
}

// sealBatch seals recs into one batch under codec.
func sealBatch(t testing.TB, codec *wal.Codec, recs []wal.Record) []byte {
	t.Helper()
	var batch []byte
	for _, r := range recs {
		var err error
		if batch, err = codec.AppendRecord(batch, r); err != nil {
			t.Fatal(err)
		}
	}
	return batch
}

// applyRecords seals recs (at least one) into a batch and applies it to
// shard shardIdx of m from the first record's LSN on.
func applyRecords(t testing.TB, m *Memory, shardIdx int, recs []wal.Record) error {
	t.Helper()
	codec := replCodec(t)
	return m.ApplyReplicated(shardIdx, codec, recs[0].LSN, sealBatch(t, codec, recs))
}

// pump streams every shard of src to dst via the cursor API until dst's
// watermarks match src's, returning the record count shipped.
func pump(t *testing.T, src, dst *Memory) int {
	t.Helper()
	shipped := 0
	for {
		moved := false
		marks := dst.SyncedLSNs()
		for i := 0; i < src.NumShards(); i++ {
			recs, ok, err := readRecords(src, i, marks[i], 64)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("shard %d: cursor at %d not servable (history truncated)", i, marks[i])
			}
			if len(recs) == 0 {
				continue
			}
			if err := applyRecords(t, dst, i, recs); err != nil {
				t.Fatal(err)
			}
			shipped += len(recs)
			moved = true
		}
		if !moved {
			return shipped
		}
	}
}

// pollAll reads every shard's cursor at its durable mark, the caught-up poll
// that makes each shard's tail.
func pollAll(t testing.TB, m *Memory) {
	t.Helper()
	for i, mark := range m.SyncedLSNs() {
		if recs, ok, err := readRecords(m, i, mark, 1); err != nil || !ok || len(recs) != 0 {
			t.Fatalf("caught-up poll of shard %d: %d records, ok=%v, %v", i, len(recs), ok, err)
		}
		if !m.commits[i].polled {
			t.Fatalf("shard %d has no tail after its first poll", i)
		}
	}
}

// TestFirstPollAllocatesNoTail: a poll makes every shard's tail, but the
// memory of a tail comes with the records that land in it, a chunk of
// tailChunk slots at a time. A first poll of each shard of a many-shard store
// allocates next to nothing, and a write to each shard after it costs that
// shard one chunk, not a whole tail of tailRecords slots.
func TestFirstPollAllocatesNoTail(t *testing.T) {
	if racedetect.Enabled || invariant.Enabled {
		t.Skip("allocation counts mean nothing under the race detector or with morphdebug assertions compiled in")
	}
	const shards = 256
	m, _ := mustOpen(t, testShardConfig(t, shards, shards*4096), Config{Dir: t.TempDir(), Sync: SyncNone})
	defer func() { _ = m.Close() }()
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	line := oracle.Fill(0, 1)
	writeEach := func() {
		// Line j of the store lies in shard j.
		for j := uint64(0); j < shards; j++ {
			if err := m.Write(j*LineBytes, line); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeEach() // what a shard's first write allocates is not the tail's
	if n := allocated(func() { pollAll(t, m) }); n > shards*256 {
		t.Errorf("the first poll of %d shards allocated %d bytes, want at most 256 a shard", shards, n)
	}
	n := allocated(writeEach)
	const chunk = tailChunk * uint64(unsafe.Sizeof(tailSlot{}))
	if n < shards*chunk || n > shards*(chunk+chunk/4) {
		t.Errorf("a write to each of %d polled shards allocated %d bytes, want a %d-byte chunk of tail a shard", shards, n, chunk)
	}
	for i := range m.commits {
		if m.commits[i].tailSlotLocked(2) == nil {
			t.Fatalf("shard %d's tail does not hold its write", i)
		}
	}
}

// TestReplicationRoundTripViaRing: the writes after a primary's first poll
// reach the replica from the primary's tail, bit for bit.
func TestReplicationRoundTripViaRing(t *testing.T) {
	p, r := replPair(t, 2)
	pollAll(t, p)
	const n = 40
	for i := 0; i < n; i++ {
		addr := uint64(i) * LineBytes
		if err := p.Write(addr, oracle.Fill(addr, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := pump(t, p, r); got != n {
		t.Fatalf("shipped %d records, want %d", got, n)
	}
	pm, rm := p.SyncedLSNs(), r.SyncedLSNs()
	for i := range pm {
		if pm[i] != rm[i] {
			t.Fatalf("shard %d: replica watermark %d != primary %d", i, rm[i], pm[i])
		}
	}
	for i := 0; i < n; i++ {
		addr := uint64(i) * LineBytes
		got, err := r.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, oracle.Fill(addr, uint64(i))) {
			t.Fatalf("replica line %#x diverged", addr)
		}
	}
	if err := r.VerifyAll(); err != nil {
		t.Fatalf("replica tree integrity after replication: %v", err)
	}
}

// TestReplicationFileFallback: records journaled before a shard's first
// poll are not in its tail, so every cursor read takes the wal.ReadRange path
// over the live segment.
func TestReplicationFileFallback(t *testing.T) {
	shcfg := testShardConfig(t, 1, 64<<10)
	p, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncAlways})
	r, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncAlways})
	defer func() { _ = p.Close(); _ = r.Close() }()
	const n = 12
	for i := 0; i < n; i++ {
		addr := uint64(i) * LineBytes
		if err := p.Write(addr, oracle.Fill(addr, 7)); err != nil {
			t.Fatal(err)
		}
	}
	// Ship in two chunks to exercise a genuinely mid-log cursor.
	recs, ok, err := readRecords(p, 0, 0, 5)
	if err != nil || !ok || len(recs) != 5 {
		t.Fatalf("ReadRecords = %d recs, ok=%v, err=%v; want 5, true, nil", len(recs), ok, err)
	}
	if err := applyRecords(t, r, 0, recs); err != nil {
		t.Fatal(err)
	}
	if got := pump(t, p, r); got != n-5 {
		t.Fatalf("second pump shipped %d, want %d", got, n-5)
	}
	if err := r.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicationCursorBehindCheckpoint: once a checkpoint truncates the
// log, a cursor before the covered LSN must report not-servable (snapshot
// bootstrap), never silently skip records.
func TestReplicationCursorBehindCheckpoint(t *testing.T) {
	shcfg := testShardConfig(t, 1, 64<<10)
	p, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncAlways})
	defer func() { _ = p.Close() }()
	for i := 0; i < 8; i++ {
		addr := uint64(i) * LineBytes
		if err := p.Write(addr, oracle.Fill(addr, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// No tail held LSNs 1..8 (nothing polled before the checkpoint), and
	// the file no longer does.
	if _, ok, err := readRecords(p, 0, 3, 16); err != nil || ok {
		t.Fatalf("cursor behind checkpoint: ok=%v err=%v, want false, nil", ok, err)
	}
	// At the watermark exactly: caught up, servable.
	if recs, ok, err := readRecords(p, 0, 8, 16); err != nil || !ok || len(recs) != 0 {
		t.Fatalf("cursor at watermark: %d recs, ok=%v, err=%v; want 0, true, nil", len(recs), ok, err)
	}
}

// TestApplyReplicatedRejectsGap: a batch that does not continue the local
// sequence must be refused before anything is journaled.
func TestApplyReplicatedRejectsGap(t *testing.T) {
	p, r := replPair(t, 1)
	for i := 0; i < 3; i++ {
		addr := uint64(i) * LineBytes
		if err := p.Write(addr, oracle.Fill(addr, 2)); err != nil {
			t.Fatal(err)
		}
	}
	recs, _, err := readRecords(p, 0, 1, 16) // starts at LSN 2: gap for a cold replica
	if err != nil || len(recs) == 0 {
		t.Fatalf("ReadRecords: %d recs, err=%v", len(recs), err)
	}
	if err := applyRecords(t, r, 0, recs); err == nil {
		t.Fatal("gap batch applied without error")
	}
	if marks := r.SyncedLSNs(); marks[0] != 0 {
		t.Fatalf("replica watermark %d after rejected batch, want 0", marks[0])
	}
}

// TestApplyReplicatedSurvivesRestart: a replica crash-restarts and its
// recovered watermark equals what it had acknowledged, so streaming resumes
// exactly where it stopped.
func TestApplyReplicatedSurvivesRestart(t *testing.T) {
	shcfg := testShardConfig(t, 2, 64<<10)
	p, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncAlways})
	defer func() { _ = p.Close() }()
	rdir := t.TempDir()
	r, _ := mustOpen(t, shcfg, Config{Dir: rdir, Sync: SyncAlways})
	const n = 20
	for i := 0; i < n; i++ {
		addr := uint64(i) * LineBytes
		if err := p.Write(addr, oracle.Fill(addr, 3)); err != nil {
			t.Fatal(err)
		}
	}
	pump(t, p, r)
	before := r.SyncedLSNs()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, info := mustOpen(t, shcfg, Config{Dir: rdir, Sync: SyncAlways})
	defer func() { _ = r2.Close() }()
	after := r2.SyncedLSNs()
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("shard %d: recovered watermark %d, want %d", i, after[i], before[i])
		}
	}
	if info.ReplayedRecords == 0 {
		t.Fatal("expected the replica's own WAL to replay on restart")
	}
	// More primary writes, then resume streaming into the restarted replica.
	for i := n; i < n+6; i++ {
		addr := uint64(i) * LineBytes
		if err := p.Write(addr, oracle.Fill(addr, 3)); err != nil {
			t.Fatal(err)
		}
	}
	pump(t, p, r2)
	if err := r2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// basePages reads every page of p's base snapshot, pageBytes at a time, the
// way a bootstrapping follower asks for them: from base 0, then each page at
// the offset the last one ended.
func basePages(p *Memory, pageBytes int) (seq uint64, pages [][]byte, err error) {
	var off uint64
	for {
		pg, err := p.ReadBasePage(seq, off, make([]byte, pageBytes))
		if err != nil {
			return 0, nil, err
		}
		if pg.Offset != off || (seq != 0 && pg.Seq != seq) || len(pg.Data) == 0 {
			return 0, nil, fmt.Errorf("asked for %d of base %d, read %d bytes at %d of base %d", off, seq, len(pg.Data), pg.Offset, pg.Seq)
		}
		seq, off = pg.Seq, pg.Offset+uint64(len(pg.Data))
		pages = append(pages, pg.Data)
		if off == pg.Size {
			return seq, pages, nil
		}
	}
}

// spoolAll lands blob in r's spool, a page of pageBytes at a time.
func spoolAll(t *testing.T, r *Memory, blob []byte, pageBytes int) {
	t.Helper()
	for off := 0; off < len(blob); off += pageBytes {
		if err := r.SpoolPage(uint64(off), blob[off:min(off+pageBytes, len(blob))]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBasePagesTakeNoLock: every page of a written store's base snapshot is
// served while the test itself holds every shard's commit locks, the freeze a
// bootstrap used to encode its whole stream under; the pages put back together
// are the base file byte for byte. A base that a full checkpoint then replaces
// is answered with offset 0 of the new one.
func TestBasePagesTakeNoLock(t *testing.T) {
	shcfg := testShardConfig(t, 2, 1<<20)
	p, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncNone})
	defer func() { _ = p.Close() }()
	for i := uint64(0); i < 1<<14; i++ {
		if err := p.Write(i*LineBytes, oracle.Fill(i*LineBytes, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(0, oracle.Fill(0, 2)); err != nil {
		t.Fatal(err)
	}
	const page = 64 << 10
	type result struct {
		seq   uint64
		pages [][]byte
		err   error
	}
	done := make(chan result, 1)
	thaw := p.freeze()
	go func() {
		seq, pages, err := basePages(p, page)
		done <- result{seq, pages, err}
	}()
	var got result
	select {
	case got = <-done:
		thaw()
	case <-time.After(10 * time.Second):
		thaw()
		t.Fatal("a base page waited on a lock the freeze holds")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	want, err := os.ReadFile(SnapshotPath(p.cfg.Dir, got.seq))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.pages) < 4 || !bytes.Equal(bytes.Join(got.pages, nil), want) {
		t.Fatalf("%d pages of base %d are not its %d-byte file", len(got.pages), got.seq, len(want))
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pg, err := p.ReadBasePage(got.seq, 2*page, make([]byte, page))
	if err != nil || pg.Seq != got.seq+1 || pg.Offset != 0 {
		t.Fatalf("page at %d of the replaced base %d: %d of base %d (%v), want 0 of base %d", 2*page, got.seq, pg.Offset, pg.Seq, err, got.seq+1)
	}
}

// TestRingEviction: a shard's tail holds the last tailRecords records
// journaled since its first poll, each copied from a line buffer the writer
// reuses. Written past that capacity, a cursor inside the tail is served from
// memory and one behind it from the segment file, which also holds the
// records from before the first poll; a reader from 0 gets every record once,
// in order, as written, and a batch read from the tail stays as read while
// later writes overwrite the slots it came from.
func TestRingEviction(t *testing.T) {
	shcfg := testShardConfig(t, 1, 64<<10)
	p, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncNone})
	defer func() { _ = p.Close() }()
	buf := make([]byte, LineBytes)
	fill := func(lsn uint64) (uint64, []byte) {
		addr := lsn % 64 * LineBytes
		return addr, oracle.Fill(addr, lsn)
	}
	write := func(from, to uint64) {
		t.Helper()
		for lsn := from; lsn <= to; lsn++ {
			addr, line := fill(lsn)
			copy(buf, line)
			if err := p.Write(addr, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	const before, evicted = 25, 7
	const last = before + tailRecords + evicted
	write(1, before)
	pollAll(t, p)
	write(before+1, last)
	held := func(lsn uint64) bool { return p.commits[0].tailSlotLocked(lsn) != nil }
	if held(before+evicted) || !held(before+evicted+1) || !held(last) {
		t.Fatalf("the tail does not hold exactly LSNs %d..%d", before+evicted+1, last)
	}
	check := func(recs []wal.Record) {
		t.Helper()
		for _, r := range recs {
			if addr, line := fill(r.LSN); r.Addr != addr || !bytes.Equal(r.Line, line) {
				t.Fatalf("record %d is not the write it journaled", r.LSN)
			}
		}
	}
	var first uint64 // the cursor of the first batch read from the tail
	for cursor := uint64(0); cursor < last; {
		recs, ok, err := readRecords(p, 0, cursor, 512)
		if err != nil || !ok || len(recs) == 0 {
			t.Fatalf("cursor %d: %d records, ok=%v, %v", cursor, len(recs), ok, err)
		}
		for i, r := range recs {
			if r.LSN != cursor+uint64(i)+1 {
				t.Fatalf("record %d of the batch after %d has LSN %d", i, cursor, r.LSN)
			}
		}
		check(recs)
		if first == 0 && held(cursor+1) {
			first = cursor
		}
		cursor = recs[len(recs)-1].LSN
	}
	// Read that batch again and overwrite its slots as its first record is
	// handed over: the poll copied them, and calls fn under no lock.
	overwritten := false
	if ok, err := p.ReadRecords(0, first, 512, func(r wal.Record) error {
		if !overwritten {
			write(last+1, last+tailRecords)
			overwritten = true
		}
		check([]wal.Record{r})
		return nil
	}); err != nil || !ok || !overwritten {
		t.Fatalf("cursor %d: ok=%v, %v", first, ok, err)
	}
}

// TestDurableSignalFires: the signal channel closes when a write becomes
// durable.
func TestDurableSignalFires(t *testing.T) {
	shcfg := testShardConfig(t, 1, 64<<10)
	p, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncAlways})
	defer func() { _ = p.Close() }()
	ch := p.DurableSignal()
	if err := p.Write(0, oracle.Fill(0, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("DurableSignal not closed by a SyncAlways write")
	}
}

// TestApplyReplicatedAuditRecords: the overflow and rebase audit records of
// the record generation before (kinds 0x02 and 0x03) have no kind in this
// one, so ApplyReplicated refuses them rather than journaling them: the write
// before one lands, the record itself moves no watermark.
func TestApplyReplicatedAuditRecords(t *testing.T) {
	_, r := replPair(t, 1)
	for i, kind := range []byte{0x02, 0x03} {
		lsn := uint64(i) + 1
		// The audit record is a write frame whose kind byte is rewritten and
		// its CRC made to match: a frame of that generation.
		codec := replCodec(t)
		batch := sealBatch(t, codec, []wal.Record{
			{Kind: wal.KindWrite, LSN: lsn, Addr: 0, Line: oracle.Fill(0, lsn)},
			{Kind: wal.KindWrite, LSN: lsn + 1, Addr: 0, Line: oracle.Fill(0, lsn+1)},
		})
		audit := batch[wal.WriteFrameBytes:]
		audit[8] = kind
		binary.LittleEndian.PutUint32(audit[4:], crc32.Checksum(audit[8:], crc32.MakeTable(crc32.Castagnoli)))
		if err := r.ApplyReplicated(0, codec, lsn, batch); err == nil {
			t.Fatalf("an audit record of kind %#x applied", kind)
		}
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
		if marks := r.SyncedLSNs(); marks[0] != lsn {
			t.Fatalf("kind %#x: watermark %d, want %d, the write before the audit record", kind, marks[0], lsn)
		}
	}
}

// TestRefusedRecordKeepsReplicationGoing: a batch whose record k is refused
// — addressed to another shard's line, or sealed under a MAC that does not
// hold — returns that error with records 1..k-1 journaled, applied and
// durable, as a batch of k-1 records would have left them. The watermark a
// poll is made from is then record k-1's, so the next batch, from record k,
// applies: a refused frame does not leave a replication gap behind it.
func TestRefusedRecordKeepsReplicationGoing(t *testing.T) {
	const k, n = 4, 6
	rec := func(lsn uint64) wal.Record {
		addr := 2 * lsn * LineBytes // shard 0 of 2 holds the even lines
		return wal.Record{Kind: wal.KindWrite, LSN: lsn, Addr: addr, Line: oracle.Fill(addr, lsn)}
	}
	for _, tc := range []struct {
		name  string
		spoil func(codec *wal.Codec) []byte // the batch of records 1..n, record k refused
	}{
		{"another shard's line", func(codec *wal.Codec) []byte {
			recs := make([]wal.Record, n)
			for i := range recs {
				recs[i] = rec(uint64(i) + 1)
			}
			recs[k-1].Addr = LineBytes
			return sealBatch(t, codec, recs)
		}},
		{"a MAC that does not hold", func(codec *wal.Codec) []byte {
			recs := make([]wal.Record, n)
			for i := range recs {
				recs[i] = rec(uint64(i) + 1)
			}
			batch := sealBatch(t, codec, recs)
			frame := batch[(k-1)*wal.WriteFrameBytes : k*wal.WriteFrameBytes]
			frame[40] ^= 1 // a bit of the sealed line, the CRC made to match
			binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[8:], crc32.MakeTable(crc32.Castagnoli)))
			return batch
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, r := replPair(t, 2)
			codec := replCodec(t)
			var ie *secmem.IntegrityError
			if err := r.ApplyReplicated(0, codec, 1, tc.spoil(codec)); !errors.As(err, &ie) {
				t.Fatalf("the batch with record %d refused returned %v, want a *secmem.IntegrityError", k, err)
			}
			if marks := r.SyncedLSNs(); marks[0] != k-1 {
				t.Fatalf("watermark %d after record %d was refused, want %d", marks[0], k, k-1)
			}
			for lsn := uint64(1); lsn < k; lsn++ {
				want := rec(lsn)
				if got, err := r.Read(want.Addr); err != nil || !bytes.Equal(got, want.Line) {
					t.Fatalf("record %d, before the refused one, is not applied: %v", lsn, err)
				}
			}
			next := []wal.Record{rec(k), rec(k + 1)}
			if err := r.ApplyReplicated(0, codec, r.SyncedLSNs()[0]+1, sealBatch(t, codec, next)); err != nil {
				t.Fatalf("the next batch, from the watermark: %v", err)
			}
			if marks := r.SyncedLSNs(); marks[0] != k+1 {
				t.Fatalf("watermark %d after the next batch, want %d", marks[0], k+1)
			}
		})
	}
}

// lengthBomb is the reply that killed a replica: a version-1 shard.Save
// stream for shcfg's layout, 44 bytes of it, whose first shard announces a
// blob of 2^62 bytes. Nothing authenticated a bootstrap blob then, and
// shard.Load sized a slice from the length.
func lengthBomb(shcfg shard.Config) []byte {
	b := append([]byte("MTSH"), make([]byte, 40)...)
	binary.LittleEndian.PutUint64(b[4:], 1)
	binary.LittleEndian.PutUint64(b[12:], uint64(shcfg.Shards))
	binary.LittleEndian.PutUint64(b[20:], shcfg.Mem.MemoryBytes)
	binary.LittleEndian.PutUint64(b[28:], 1<<62)
	return b
}

// TestInstallSnapshotRefusesWhatDoesNotAuthenticate: a bootstrap spool is the
// one thing a replica takes from whatever answers as its leader and lands on
// its own disk. Whatever is wrong with one — it is not a state stream at all,
// it is cut short, a page was flipped in flight, it was made for another role
// or another chain position, or for another shard count — the replica says so
// with the right type, allocates nothing to speak of, deletes the spool, and
// goes on serving from a directory nothing has touched; the transfer then
// starts over and installs.
func TestInstallSnapshotRefusesWhatDoesNotAuthenticate(t *testing.T) {
	shcfg := testShardConfig(t, 2, 64<<10)
	p, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncAlways})
	defer func() { _ = p.Close() }()
	for i := uint64(0); i < 40; i++ {
		if err := p.Write(i*LineBytes, oracle.Fill(i*LineBytes, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	const page = 1 << 10
	seq, pages, err := basePages(p, page)
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Join(pages, nil)
	hdr := ckpt.DeltaHeader{Seq: seq, CoveredLSN: make([]uint64, 2)}
	otherPath := filepath.Join(t.TempDir(), "other")
	cuts, err := p.fullCuts()
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.WriteDelta(new(ckpt.StreamWriter), otherPath, walKey(testKey, 0, 1), hdr, cuts); err != nil {
		t.Fatal(err)
	}
	for _, cut := range cuts {
		cut.Abort()
	}
	other, err := os.ReadFile(otherPath)
	if err != nil {
		t.Fatal(err)
	}
	one, _ := mustOpen(t, testShardConfig(t, 1, 64<<10), Config{Dir: t.TempDir(), Sync: SyncNone})
	_, onePages, err := basePages(one, page)
	if err != nil {
		t.Fatal(err)
	}
	if err := one.Close(); err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(blob)
	flipped[page+page/2] ^= 0x10 // in the second page

	dir := t.TempDir()
	r, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	defer func() { _ = r.Close() }()
	if err := r.Write(0, oracle.Fill(0, 77)); err != nil {
		t.Fatal(err)
	}
	listing := func() string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return strings.Join(names, " ")
	}
	before := listing()
	for _, tc := range []struct {
		name     string
		spool    []byte
		seq      uint64
		version  bool // want *secmem.VersionError
		tamper   bool // want *secmem.IntegrityError
		mismatch bool // want *shard.MismatchError
	}{
		{name: "the 44-byte version-1 stream", spool: lengthBomb(shcfg), seq: seq, version: true},
		{name: "truncated", spool: blob[:len(blob)-40], seq: seq, tamper: true},
		{name: "a page flipped in flight", spool: flipped, seq: seq, tamper: true},
		{name: "a delta stream: another role's key", spool: other, seq: seq, tamper: true},
		{name: "another chain position", spool: blob, seq: seq + 1, tamper: true},
		{name: "another shard count", spool: bytes.Join(onePages, nil), seq: 1, mismatch: true},
	} {
		spoolAll(t, r, tc.spool, page)
		var was, is runtime.MemStats
		runtime.ReadMemStats(&was)
		_, err := r.InstallSnapshot(tc.seq)
		runtime.ReadMemStats(&is)
		if got := is.TotalAlloc - was.TotalAlloc; got > 1<<20+16*uint64(len(tc.spool)) {
			t.Errorf("%s: refusing %d bytes allocated %d", tc.name, len(tc.spool), got)
		}
		var ve *secmem.VersionError
		var me *shard.MismatchError
		if err == nil || errors.As(err, &ve) != tc.version || isIntegrityError(err) != tc.tamper || errors.As(err, &me) != tc.mismatch {
			t.Fatalf("%s: InstallSnapshot returned %v", tc.name, err)
		}
		if got, err := r.Read(0); err != nil || !bytes.Equal(got, oracle.Fill(0, 77)) {
			t.Fatalf("%s: the replica no longer serves what it held: %v", tc.name, err)
		}
		if after := listing(); after != before {
			t.Fatalf("%s: a refused spool left the data directory [%s], was [%s]", tc.name, after, before)
		}
	}
	if err := r.Write(LineBytes, oracle.Fill(LineBytes, 78)); err != nil {
		t.Fatalf("the replica takes no write after refusing: %v", err)
	}
	spoolAll(t, r, blob, page)
	fresh, err := r.InstallSnapshot(seq)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fresh.Close() }()
	if got, err := fresh.Read(39 * LineBytes); err != nil || !bytes.Equal(got, oracle.Fill(39*LineBytes, 5)) {
		t.Fatalf("the spool that authenticates did not install: %v", err)
	}
	if got, want := fresh.SyncedLSNs(), p.SyncedLSNs(); !slices.Equal(got, want) {
		t.Fatalf("installed at marks %v, want the base's coverage %v", got, want)
	}
	if err := fresh.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestInstallSnapshotRefusesAnOlderGeneration: a replica whose spool holds a
// base written before each state-stream frame carried the line MAC's tag —
// cwwal_dir's snapshot 2, "MCST" version 2, landed page by page — says so
// with a *secmem.VersionError, not as tampering, and goes on serving from a
// directory nothing has touched. The same base as the current stream writes
// it (st3_dir's) then installs.
func TestInstallSnapshotRefusesAnOlderGeneration(t *testing.T) {
	snap := filepath.Base(SnapshotPath("", 2))
	old, err := os.ReadFile(filepath.Join("testdata/cwwal_dir", snap))
	if err != nil {
		t.Fatal(err)
	}
	current, err := os.ReadFile(filepath.Join("testdata/st3_dir", snap))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r, _ := mustOpen(t, testShardConfig(t, 2, 4<<20), Config{Dir: dir, Sync: SyncAlways})
	defer func() { _ = r.Close() }()
	if err := r.Write(0, oracle.Fill(0, 77)); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	spoolAll(t, r, old, 512)
	_, err = r.InstallSnapshot(2)
	var ve *secmem.VersionError
	if !errors.As(err, &ve) || ve.Magic != "MCST" || ve.Version != 2 || isIntegrityError(err) {
		t.Fatalf("InstallSnapshot of an MCST 2 base returned %v, want a *secmem.VersionError naming it", err)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused spool changed the data directory: %d files, was %d", len(after), len(before))
	}
	if got, err := r.Read(0); err != nil || !bytes.Equal(got, oracle.Fill(0, 77)) {
		t.Fatalf("the replica no longer serves what it held: %v", err)
	}
	spoolAll(t, r, current, 512)
	fresh, err := r.InstallSnapshot(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fresh.Close() }()
	if got, err := fresh.Read(11 * LineBytes); err != nil || !bytes.Equal(got, parentDirLine(11, 1)) {
		t.Fatalf("the current generation's base did not install: %v", err)
	}
}

// BenchmarkReadRecordsPastRing is the poll of a replica further behind than
// the shard's tail holds: a full batch read from the middle of the live
// segment. Its cost is the batch's, whatever the segment's length, so the two
// sizes should cost the same.
func BenchmarkReadRecordsPastRing(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			m, _ := mustOpen(b, testShardConfig(b, 1, 64<<10), Config{Dir: b.TempDir(), Sync: SyncNone})
			defer func() { _ = m.Close() }()
			for i := 0; i < n; i++ {
				addr := uint64(i%1024) * LineBytes
				if err := m.Write(addr, oracle.Fill(addr, uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
			if err := m.Flush(); err != nil {
				b.Fatal(err)
			}
			const batch = 512
			b.SetBytes(batch * wal.WriteFrameBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs := 0
				ok, err := m.ReadRecords(0, uint64(n/2), batch, func(wal.Record) error { recs++; return nil })
				if err != nil || !ok || recs != batch {
					b.Fatalf("ReadRecords = %d records, ok=%v, %v", recs, ok, err)
				}
			}
		})
	}
}

// BenchmarkReadRecordsFromTail is a caught-up follower's poll of a shard's
// tail: the last 1, 16 or 512 records of a polled shard, copied out under its
// commit lock.
func BenchmarkReadRecordsFromTail(b *testing.B) {
	m, _ := mustOpen(b, testShardConfig(b, 1, 64<<10), Config{Dir: b.TempDir(), Sync: SyncNone})
	defer func() { _ = m.Close() }()
	pollAll(b, m)
	for i := uint64(1); i <= tailRecords; i++ {
		addr := i % 1024 * LineBytes
		if err := m.Write(addr, oracle.Fill(addr, i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 16, 512} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				recs := 0
				ok, err := m.ReadRecords(0, uint64(tailRecords-n), 512, func(wal.Record) error { recs++; return nil })
				if err != nil || !ok || recs != n {
					b.Fatalf("ReadRecords = %d records, ok=%v, %v", recs, ok, err)
				}
			}
		})
	}
}

// BenchmarkJournaledWrite is one SyncNone write through the journal, on a
// shard nobody has polled and on one whose tail a poll and tailRecords writes
// have made: the copy of the line into the tail is the difference.
func BenchmarkJournaledWrite(b *testing.B) {
	for _, polled := range []bool{false, true} {
		b.Run(fmt.Sprintf("polled=%v", polled), func(b *testing.B) {
			m, _ := mustOpen(b, testShardConfig(b, 1, 64<<10), Config{Dir: b.TempDir(), Sync: SyncNone})
			defer func() { _ = m.Close() }()
			line := oracle.Fill(0, 1)
			if polled {
				pollAll(b, m)
				for i := 0; i < tailRecords; i++ {
					if err := m.Write(uint64(i%16)*LineBytes, line); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Write(uint64(i%16)*LineBytes, line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
