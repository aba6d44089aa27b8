package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wal"
)

// replPair opens a primary (with a replication ring) and a cold replica
// (own dir) over the same shard geometry.
func replPair(t *testing.T, shards int, ringCap int) (*Memory, *Memory) {
	t.Helper()
	shcfg := testShardConfig(t, shards, 64<<10)
	p, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncAlways, ReplHistory: ringCap})
	r, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncAlways, ReplHistory: ringCap})
	t.Cleanup(func() { _ = p.Close(); _ = r.Close() })
	return p, r
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
			recs, ok, err := src.ReadRecords(i, marks[i], 64)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("shard %d: cursor at %d not servable (history truncated)", i, marks[i])
			}
			if len(recs) == 0 {
				continue
			}
			if err := dst.ApplyReplicated(i, recs); err != nil {
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

func TestReplicationRoundTripViaRing(t *testing.T) {
	p, r := replPair(t, 2, 1024)
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

// TestReplicationFileFallback disables the ring so every cursor read takes
// the wal.ReplayRange path over the live segment.
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
	recs, ok, err := p.ReadRecords(0, 0, 5)
	if err != nil || !ok || len(recs) != 5 {
		t.Fatalf("ReadRecords = %d recs, ok=%v, err=%v; want 5, true, nil", len(recs), ok, err)
	}
	if err := r.ApplyReplicated(0, recs); err != nil {
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
	// Ring disabled → the file no longer holds LSNs 1..8.
	if _, ok, err := p.ReadRecords(0, 3, 16); err != nil || ok {
		t.Fatalf("cursor behind checkpoint: ok=%v err=%v, want false, nil", ok, err)
	}
	// At the watermark exactly: caught up, servable.
	if recs, ok, err := p.ReadRecords(0, 8, 16); err != nil || !ok || len(recs) != 0 {
		t.Fatalf("cursor at watermark: %d recs, ok=%v, err=%v; want 0, true, nil", len(recs), ok, err)
	}
}

// TestApplyReplicatedRejectsGap: a batch that does not continue the local
// sequence must be refused before anything is journaled.
func TestApplyReplicatedRejectsGap(t *testing.T) {
	p, r := replPair(t, 1, 64)
	for i := 0; i < 3; i++ {
		addr := uint64(i) * LineBytes
		if err := p.Write(addr, oracle.Fill(addr, 2)); err != nil {
			t.Fatal(err)
		}
	}
	recs, _, err := p.ReadRecords(0, 1, 16) // starts at LSN 2: gap for a cold replica
	if err != nil || len(recs) == 0 {
		t.Fatalf("ReadRecords: %d recs, err=%v", len(recs), err)
	}
	if err := r.ApplyReplicated(0, recs); err == nil {
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
	p, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncAlways, ReplHistory: 256})
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
	if info.ReplayedWrites == 0 {
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

// TestSaveMarksInstallSnapshotBootstrap: a cold follower bootstraps from a
// SaveMarks blob and then streams the suffix.
func TestSaveMarksInstallSnapshotBootstrap(t *testing.T) {
	shcfg := testShardConfig(t, 2, 64<<10)
	p, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncAlways, ReplHistory: 8})
	defer func() { _ = p.Close() }()
	const n = 30
	for i := 0; i < n; i++ {
		addr := uint64(i) * LineBytes
		if err := p.Write(addr, oracle.Fill(addr, 4)); err != nil {
			t.Fatal(err)
		}
	}
	var blob bytes.Buffer
	marks, err := p.SaveMarks(&blob)
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncAlways})
	r, err := cold.InstallSnapshot(&blob, marks)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	got := r.SyncedLSNs()
	for i := range marks {
		if got[i] != marks[i] {
			t.Fatalf("shard %d: bootstrap watermark %d, want %d", i, got[i], marks[i])
		}
	}
	// Suffix after the snapshot streams incrementally.
	for i := n; i < n+10; i++ {
		addr := uint64(i) * LineBytes
		if err := p.Write(addr, oracle.Fill(addr, 4)); err != nil {
			t.Fatal(err)
		}
	}
	pump(t, p, r)
	for i := 0; i < n+10; i++ {
		addr := uint64(i) * LineBytes
		got, err := r.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, oracle.Fill(addr, 4)) {
			t.Fatalf("line %#x diverged after bootstrap+stream", addr)
		}
	}
	if err := r.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestRingEviction: a tiny ring forces eviction; cursors inside the ring
// serve from memory, cursors behind it fall back to the segment file and
// still deliver everything.
func TestRingEviction(t *testing.T) {
	shcfg := testShardConfig(t, 1, 64<<10)
	p, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncAlways, ReplHistory: 4})
	defer func() { _ = p.Close() }()
	const n = 25
	for i := 0; i < n; i++ {
		addr := uint64(i%8) * LineBytes
		if err := p.Write(addr, oracle.Fill(addr, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var lsns []uint64
	cursor := uint64(0)
	for {
		recs, ok, err := p.ReadRecords(0, cursor, 3)
		if err != nil || !ok {
			t.Fatalf("cursor %d: ok=%v err=%v", cursor, ok, err)
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			lsns = append(lsns, r.LSN)
		}
		cursor = recs[len(recs)-1].LSN
	}
	if len(lsns) != n {
		t.Fatalf("delivered %d records, want %d", len(lsns), n)
	}
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("record %d has LSN %d, want %d", i, lsn, i+1)
		}
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

// TestApplyReplicatedAuditRecords: audit records in the stream journal as
// no-ops and advance the watermark.
func TestApplyReplicatedAuditRecords(t *testing.T) {
	_, r := replPair(t, 1, 64)
	recs := []wal.Record{
		{Kind: wal.KindWrite, LSN: 1, Addr: 0, Line: oracle.Fill(0, 9)},
		{Kind: wal.KindOverflow, LSN: 2, Count: 3},
		{Kind: wal.KindRebase, LSN: 3, Count: 1},
	}
	if err := r.ApplyReplicated(0, recs); err != nil {
		t.Fatal(err)
	}
	if marks := r.SyncedLSNs(); marks[0] != 3 {
		t.Fatalf("watermark %d, want 3", marks[0])
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

// repairCRCs recomputes the CRC of every frame of an authenticated stream,
// as an adversary would after an edit: only the MAC trailer is beyond them.
func repairCRCs(stream []byte) {
	off := 14 + int(binary.LittleEndian.Uint16(stream[12:]))
	for off+4 <= len(stream) {
		n := int(binary.LittleEndian.Uint32(stream[off:]))
		if n == 0 || off+4+n+4 > len(stream) {
			return
		}
		binary.LittleEndian.PutUint32(stream[off+4+n:], crc32.Checksum(stream[off+4:off+4+n], crc32.MakeTable(crc32.Castagnoli)))
		off += 4 + n + 4
	}
}

// TestInstallSnapshotRefusesWhatDoesNotAuthenticate: a bootstrap blob is the
// one thing a replica takes from whatever answers as its leader and lands on
// its own disk. Whatever is wrong with one — it is not a state stream at all,
// it is cut short, edited, made for another role, or does not cover the marks
// it came with — the replica says so with the right type, allocates nothing to
// speak of, and goes on serving from a directory nothing has touched.
func TestInstallSnapshotRefusesWhatDoesNotAuthenticate(t *testing.T) {
	shcfg := testShardConfig(t, 2, 64<<10)
	p, _ := mustOpen(t, shcfg, Config{Dir: t.TempDir(), Sync: SyncAlways})
	defer func() { _ = p.Close() }()
	for i := uint64(0); i < 40; i++ {
		if err := p.Write(i*LineBytes, oracle.Fill(i*LineBytes, 5)); err != nil {
			t.Fatal(err)
		}
	}
	var blob, other bytes.Buffer
	marks, err := p.SaveMarks(&blob)
	if err != nil {
		t.Fatal(err)
	}
	hdr := ckpt.DeltaHeader{Seq: 2, Base: 1, CoveredLSN: marks, CoveredWrites: make([]uint64, len(marks))}
	if err := ckpt.WriteState(new(ckpt.StreamWriter), &other, walKey(testKey, 0, 1), hdr, p.engines()); err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(blob.Bytes())
	flipped[len(flipped)/2] ^= 0x10
	repairCRCs(flipped)
	ahead := append([]uint64(nil), marks...)
	ahead[1]++

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
		name    string
		blob    []byte
		marks   []uint64
		version bool // want *secmem.VersionError
		tamper  bool // want *secmem.IntegrityError
	}{
		{name: "the 44-byte version-1 stream", blob: lengthBomb(shcfg), marks: marks, version: true},
		{name: "truncated", blob: blob.Bytes()[:blob.Len()-40], marks: marks, tamper: true},
		{name: "bit-flipped, CRCs repaired", blob: flipped, marks: marks, tamper: true},
		{name: "a delta stream: another role's key and context", blob: other.Bytes(), marks: marks, tamper: true},
		{name: "marks ahead of the coverage header", blob: blob.Bytes(), marks: ahead},
		{name: "marks for another shard count", blob: blob.Bytes(), marks: marks[:1]},
	} {
		var was, is runtime.MemStats
		runtime.ReadMemStats(&was)
		_, err := r.InstallSnapshot(bytes.NewReader(tc.blob), tc.marks)
		runtime.ReadMemStats(&is)
		if got := is.TotalAlloc - was.TotalAlloc; got > 1<<20+16*uint64(len(tc.blob)) {
			t.Errorf("%s: refusing %d bytes allocated %d", tc.name, len(tc.blob), got)
		}
		var ve *secmem.VersionError
		if err == nil || errors.As(err, &ve) != tc.version || isIntegrityError(err) != tc.tamper {
			t.Fatalf("%s: InstallSnapshot returned %v", tc.name, err)
		}
		if got, err := r.Read(0); err != nil || !bytes.Equal(got, oracle.Fill(0, 77)) {
			t.Fatalf("%s: the replica no longer serves what it held: %v", tc.name, err)
		}
	}
	if err := r.Write(LineBytes, oracle.Fill(LineBytes, 78)); err != nil {
		t.Fatalf("the replica takes no write after refusing: %v", err)
	}
	if after := listing(); after != before {
		t.Fatalf("refused blobs changed the data directory from [%s] to [%s]", before, after)
	}
	fresh, err := r.InstallSnapshot(&blob, marks)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fresh.Close() }()
	if got, err := fresh.Read(39 * LineBytes); err != nil || !bytes.Equal(got, oracle.Fill(39*LineBytes, 5)) {
		t.Fatalf("the blob that authenticates did not install: %v", err)
	}
	if err := fresh.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}
