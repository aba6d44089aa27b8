package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/counters"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/wal"
)

// testdata/parent_dir is a data directory written by the commit before the
// word-wise codec and the pre-keyed MAC (how:
// internal/counters/testdata/README.md): 2 shards of morph128 over 4 MiB,
// opened fresh, written through a full checkpoint, a delta checkpoint and a
// WAL tail, then closed. parent_dir.json says which lines it holds and how
// often each was written. Recovery decodes and re-verifies sealed lines from
// all three file kinds, so it exercises every format the rewrite touched.
//
// Its snapshot is in the container ("MDSS", version 1) that went when every
// serialisation of the engine became the state stream. testdata/v2_dir is
// the same history written whole by the commit that made that change, its
// snapshot and delta in "MCST" version 1, which went when the line MAC became
// GHASH-then-AES. Open answers both with a *secmem.VersionError and leaves
// the directory alone. testdata/cw_dir is the same history written by the
// commit that changed the MAC (internal/counters/testdata/cwgen.go.txt), its
// WAL tail of the record generation sealed by HMAC-SHA256, and
// testdata/cwwal_dir the same history once more, with the WAL sealed by the
// line MAC (testdata/cwwalgen.go.txt). Both hold their snapshot and delta in
// "MCST" version 2, whose frames a CRC-32C checked and whose stream one
// HMAC-SHA256 trailer authenticated, so Open refuses both. testdata/st3_dir
// is the same history as the current stream writes it (testdata/st3gen.go.txt)
// and recovers. The older directories' sealed lines are walked out by
// test-only readers (mcst2_test.go's is the version-2 stream reader) and
// held to st3_dir's: only their MACs may differ, cw_dir's and cwwal_dir's
// payloads not at all, and the WAL segments, sealed by HMAC in the first
// three, not at all among those three.

func parentDirLine(d uint64, v int) []byte {
	line := make([]byte, LineBytes)
	for i := range line {
		line[i] = byte(d*131 + uint64(v)*17 + uint64(i))
	}
	return line
}

// v1Snapshot walks a version-1 snapshot file — "MDSS" around a version-1
// shard.Save ("MTSH") around one version-1 secmem.Save ("MTSM") a shard —
// into each shard's records. The fixture is trusted: nothing is validated,
// and the file MAC that ends it is not looked at.
func v1Snapshot(blob []byte) (shards [][]secmem.DirtyLine) {
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(blob); blob = blob[8:]; return v }
	take := func(n uint64) []byte { b := blob[:n]; blob = blob[n:]; return b }
	take(4 + 8) // "MDSS", 1
	u64()       // the sequence number
	nsh := u64()
	take(16 * nsh)      // coverage
	take(4 + 8 + 8 + 8) // "MTSH", 1, shards, capacity
	for range nsh {
		take(8 + 4 + 8 + 8) // the blob's length; "MTSM", 1, capacity
		take(u64())         // the organization's fingerprint
		root := take(LineBytes)
		levels := u64()
		lines := []secmem.DirtyLine{{Level: int32(levels), Line: root}}
		for lvl := uint64(0); lvl < levels; lvl++ {
			for n := u64(); n > 0; n-- {
				lines = append(lines, secmem.DirtyLine{Level: int32(lvl), Index: u64(), Line: take(LineBytes)})
			}
		}
		for n := u64(); n > 0; n-- {
			lines = append(lines, secmem.DirtyLine{Level: -1, Index: u64(), Line: take(LineBytes), MAC: u64()})
		}
		shards = append(shards, lines)
	}
	return shards
}

type dirManifest struct {
	MemoryBytes uint64         `json:"memory_bytes"`
	Shards      int            `json:"shards"`
	Versions    map[string]int `json:"versions"`
}

// copyFixtureDir copies a fixture directory (recovery rewrites the one it is
// given) and reads the manifest both of them share: they hold one history.
func copyFixtureDir(t *testing.T, from string) (string, dirManifest) {
	t.Helper()
	raw, err := os.ReadFile("testdata/parent_dir.json")
	if err != nil {
		t.Fatal(err)
	}
	var man dirManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	return copyDir(t, from), man
}

// copyDir copies a data directory's files into a new temporary one.
func copyDir(t *testing.T, from string) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// checkRefused opens a copy of an older fixture directory and wants the
// typed refusal naming the container it holds, with no file touched.
func checkRefused(t *testing.T, fixture, magic string, version uint64) {
	t.Helper()
	dir, man := copyFixtureDir(t, fixture)
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(testShardConfig(t, man.Shards, man.MemoryBytes), Config{Dir: dir, Sync: SyncAlways})
	var ve *secmem.VersionError
	if !errors.As(err, &ve) || ve.Magic != magic || ve.Version != version {
		t.Fatalf("Open of %s returned %v, want a *secmem.VersionError naming %q version %d", fixture, err, magic, version)
	}
	if after, err := os.ReadDir(dir); err != nil || len(after) != len(before) {
		t.Fatalf("a refused directory went from %d files to %d (%v)", len(before), len(after), err)
	}
}

// readV1Stream reads the lines out of an "MCST" version-1 file: version 2's
// container but for the version word. The fixture is trusted.
func readV1Stream(t *testing.T, path string, seq, base uint64) [][]secmem.DirtyLine {
	t.Helper()
	return payloadShards(t, mcst2Payload(t, path, 1, seq, base))
}

// checkOnlyMACsMoved holds an older fixture's lines, shard by shard, to the
// current fixture's at every level compare admits: the same lines, each with
// the same bytes but for its MAC (a data line's MAC field, a counter line's
// MAC word).
func checkOnlyMACsMoved(t *testing.T, what string, old, cw [][]secmem.DirtyLine, compare func(level int32) bool) {
	t.Helper()
	type at struct {
		shard int
		level int32
		index uint64
	}
	masked := func(d secmem.DirtyLine) string {
		line := bytes.Clone(d.Line)
		if d.Level >= 0 {
			counters.SetLineMAC(line, 0)
		}
		return string(line)
	}
	want := map[at]string{}
	for sh, lines := range cw {
		for _, d := range lines {
			if compare(d.Level) {
				want[at{sh, d.Level, d.Index}] = masked(d)
			}
		}
	}
	n, data := 0, 0
	for sh, lines := range old {
		for _, d := range lines {
			if !compare(d.Level) {
				continue
			}
			n++
			if w, ok := want[at{sh, d.Level, d.Index}]; !ok || masked(d) != w {
				t.Fatalf("%s: shard %d level %d line %d is not the current fixture's but for its MAC", what, sh, d.Level, d.Index)
			}
			if d.Level == -1 {
				data++
			}
		}
	}
	if n != len(want) || data == 0 {
		t.Fatalf("%s: %d lines compared (%d data), the current fixture holds %d", what, n, data, len(want))
	}
}

// st3Lines reads a state stream file of testdata/st3_dir.
func st3Lines(t *testing.T, name string, seq, base uint64) [][]secmem.DirtyLine {
	t.Helper()
	_, lines, err := readDeltaLines(filepath.Join("testdata/st3_dir", name), deltaKey(testKey), seq, base)
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// checkWALUnmoved wants an older fixture's WAL segments byte-identical to
// cw_dir's: until cwwal_dir, every WAL was sealed by the same HMAC.
func checkWALUnmoved(t *testing.T, fixture string) {
	t.Helper()
	entries, err := os.ReadDir("testdata/cw_dir")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "wal.") {
			continue
		}
		theirs, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		ours, err := os.ReadFile(filepath.Join("testdata/cw_dir", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(theirs, ours) {
			t.Fatalf("%s/%s: not cw_dir's segment byte for byte", fixture, e.Name())
		}
		n++
	}
	if n == 0 {
		t.Fatal("cw_dir holds no WAL segment")
	}
}

func TestParentDataDirectoryRecovers(t *testing.T) {
	checkRefused(t, "testdata/parent_dir", "MDSS", 1)
	old, err := os.ReadFile("testdata/parent_dir/" + filepath.Base(SnapshotPath("", 2)))
	if err != nil {
		t.Fatal(err)
	}
	// The parent's tree counted writes, not write-backs, so its lines above
	// level 0 hold other counters (internal/counters/testdata/README.md).
	checkOnlyMACsMoved(t, "parent snapshot 2", v1Snapshot(old), st3Lines(t, filepath.Base(SnapshotPath("", 2)), 2, 0),
		func(level int32) bool { return level <= 0 && level >= -1 })
}

// TestV2DataDirectoryRecovers: the directory the state stream's commit wrote
// is refused whole, its snapshot and delta hold the current fixture's lines
// but for their MACs, and its WAL is the current fixture's.
func TestV2DataDirectoryRecovers(t *testing.T) {
	checkRefused(t, "testdata/v2_dir", "MCST", 1)
	every := func(level int32) bool { return level >= -1 }
	snap, delta := filepath.Base(SnapshotPath("", 2)), ckpt.DeltaName(3, 2)
	checkOnlyMACsMoved(t, "v2 snapshot 2", readV1Stream(t, filepath.Join("testdata/v2_dir", snap), 2, 0), st3Lines(t, snap, 2, 0), every)
	checkOnlyMACsMoved(t, "v2 delta 3", readV1Stream(t, filepath.Join("testdata/v2_dir", delta), 3, 2), st3Lines(t, delta, 3, 2), every)
	checkWALUnmoved(t, "testdata/v2_dir")
}

// TestCWDataDirectoryRecovers: the directory the GHASH-then-AES line MAC's
// commit wrote is refused whole — Open names its state stream's older
// version, and Replay and DecodeAll of each of its segments the WAL frame's
// older kind, in a *secmem.VersionError, never an *secmem.IntegrityError —
// and its snapshot and delta are cwwal_dir's byte for byte: only the WAL
// moved. Without a WAL tail, it is still refused, by its snapshot.
func TestCWDataDirectoryRecovers(t *testing.T) {
	checkRefused(t, "testdata/cw_dir", "MCST", 2)
	entries, err := os.ReadDir("testdata/cw_dir")
	if err != nil {
		t.Fatal(err)
	}
	segments := 0
	for _, e := range entries {
		path := filepath.Join("testdata/cw_dir", e.Name())
		ours, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, shardIdx, _, _ := parseSeq(e.Name())
		if !strings.HasPrefix(e.Name(), "wal.") {
			if theirs, err := os.ReadFile(filepath.Join("testdata/cwwal_dir", e.Name())); err != nil || !bytes.Equal(ours, theirs) {
				t.Fatalf("cw_dir/%s: not cwwal_dir's file byte for byte (%v)", e.Name(), err)
			}
			continue
		}
		segments++
		opt := wal.Options{Key: walKey(testKey, shardIdx, 2)}
		refuse := func(r wal.Record) error {
			t.Fatalf("%s: record %d of the generation before delivered", e.Name(), r.LSN)
			return nil
		}
		var ve *secmem.VersionError
		var ie *secmem.IntegrityError
		if _, err := wal.ReplayTail(path, opt, 1, 1, refuse); !errors.As(err, &ve) || ve.Version != 1 || errors.As(err, &ie) {
			t.Errorf("ReplayTail of cw_dir/%s: %v, want a *secmem.VersionError", e.Name(), err)
		}
		codec, err := wal.NewCodec(opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := codec.DecodeAll(ours, 1, refuse); !errors.As(err, &ve) || ve.Version != 1 || errors.As(err, &ie) {
			t.Errorf("DecodeAll of cw_dir/%s: %v, want a *secmem.VersionError", e.Name(), err)
		}
	}
	if segments == 0 {
		t.Fatal("cw_dir holds no WAL segment")
	}

	// A store that build shut down cleanly ends on a checkpoint, whose
	// segments are empty: with cw_dir's emptied so, it is refused by its
	// snapshot's version all the same, and left as it was.
	dir, man := copyFixtureDir(t, "testdata/cw_dir")
	for i := 0; i < man.Shards; i++ {
		if err := os.Truncate(SegmentPath(dir, 2, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	checkRefused(t, dir, "MCST", 2)
}

// TestCWWALDataDirectoryRecovers: the directory the commit that moved the
// WAL's seal onto the line MAC wrote is refused whole, by its snapshot's
// "MCST" version 2; its WAL segments are st3_dir's byte for byte, and its
// snapshot and delta carry st3_dir's payloads byte for byte: only the
// stream's framing moved.
func TestCWWALDataDirectoryRecovers(t *testing.T) {
	checkRefused(t, "testdata/cwwal_dir", "MCST", 2)
	for _, e := range []struct {
		name      string
		seq, base uint64
	}{{filepath.Base(SnapshotPath("", 2)), 2, 0}, {ckpt.DeltaName(3, 2), 3, 2}} {
		checkSamePayload(t, filepath.Join("testdata/cwwal_dir", e.name), filepath.Join("testdata/st3_dir", e.name), e.seq, e.base)
	}
	for i := 0; i < 2; i++ {
		name := filepath.Base(SegmentPath("", 2, i))
		ours, err := os.ReadFile(filepath.Join("testdata/cwwal_dir", name))
		if err != nil {
			t.Fatal(err)
		}
		if theirs, err := os.ReadFile(filepath.Join("testdata/st3_dir", name)); err != nil || !bytes.Equal(ours, theirs) {
			t.Fatalf("cwwal_dir/%s: not st3_dir's segment byte for byte (%v)", name, err)
		}
	}
}

// TestST3DataDirectoryRecovers holds the formats of a data directory to the
// one the commit that tagged each state-stream frame with the line MAC's
// chain wrote: the history replayed here leaves its files byte for byte, and
// a copy of it recovers and goes on being used.
func TestST3DataDirectoryRecovers(t *testing.T) {
	dir, man := copyFixtureDir(t, "testdata/st3_dir")
	recoverFixtureDir(t, dir, man)

	fresh := t.TempDir()
	m, _ := mustOpen(t, testShardConfig(t, man.Shards, man.MemoryBytes), Config{Dir: fresh, Sync: SyncAlways})
	versions := map[uint64]int{}
	write := func(d uint64) {
		versions[d]++
		if err := m.Write(d*LineBytes, parentDirLine(d, versions[d])); err != nil {
			t.Fatal(err)
		}
	}
	for d := uint64(0); d < 12; d++ {
		write(d)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for d := uint64(6); d < 18; d++ {
		write(d)
	}
	if err := m.CheckpointDelta(); err != nil {
		t.Fatal(err)
	}
	for d := uint64(10); d < 24; d++ {
		write(d)
	}
	for i := 0; i < 12; i++ {
		write(7)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir("testdata/st3_dir")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadDir(fresh); err != nil || len(got) != len(entries) {
		t.Fatalf("the history left %d files (%v), the fixture holds %d", len(got), err, len(entries))
	}
	for _, e := range entries {
		want, err := os.ReadFile(filepath.Join("testdata/st3_dir", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(fresh, e.Name())); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: the history wrote other bytes than the fixture holds (%v)", e.Name(), err)
		}
	}
}

// recoverFixtureDir recovers a copy of a fixture directory — full snapshot 2,
// delta 3 and a WAL tail on both shards — reads it back against the manifest
// and goes on using it.
func recoverFixtureDir(t *testing.T, dir string, man dirManifest) {
	t.Helper()
	shcfg := testShardConfig(t, man.Shards, man.MemoryBytes)
	m, info := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncNone})
	if err := m.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if info.Fresh || info.SnapshotSeq != 2 || info.DeltasApplied != 1 || info.ReplayedRecords == 0 {
		t.Fatalf("recovery = %+v, want snapshot 2 + one delta + a replayed WAL tail", info)
	}
	if info.TornTailCount() != 0 {
		t.Fatalf("a cleanly closed directory recovered with %d torn tails", info.TornTailCount())
	}
	check := func(m *Memory) {
		t.Helper()
		for key, v := range man.Versions {
			d, err := strconv.ParseUint(key, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Read(d * LineBytes)
			if err != nil {
				t.Fatalf("line %d: %v", d, err)
			}
			if !bytes.Equal(got, parentDirLine(d, v)) {
				t.Fatalf("line %d reads back wrong from the fixture directory", d)
			}
		}
		if err := m.VerifyAll(); err != nil {
			t.Fatal(err)
		}
	}
	check(m)

	// It is a live store: write on — line 7, the history's hot line, until a
	// counter the fixture's commit sealed overflows — checkpoint both ways,
	// reopen.
	write := func(d uint64) {
		t.Helper()
		key := strconv.FormatUint(d, 10)
		man.Versions[key]++
		if err := m.Write(d*LineBytes, parentDirLine(d, man.Versions[key])); err != nil {
			t.Fatal(err)
		}
	}
	for d := uint64(0); d < 8; d++ {
		write(d)
	}
	for i, before := 0, m.Stats().Overflows[0]; m.Stats().Overflows[0] == before; i++ {
		if i == 1<<16 {
			t.Fatal("65 536 writes to one line overflowed no counter")
		}
		write(7)
	}
	if err := m.CheckpointDelta(); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	if err := m2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	check(m2)
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
}

// testdata/golden_deltas holds three chained delta segments written by the
// last commit whose delta checkpoint froze every shard and copied every dirty
// line before writing any (testdata/goldengen.go.txt; how:
// internal/counters/testdata/README.md), in "MCST" version 1.
// testdata/cw_deltas holds the same history's segments written by the commit
// that made the line MAC GHASH-then-AES (cwgen.go.txt), in "MCST" version 2,
// and testdata/st3_deltas as the current stream writes them (st3gen.go.txt).
// The cut that replaced the freeze promised the same bytes whenever nothing
// writes while it drains, so the same history played here must leave
// st3_deltas' three files byte for byte, cw_deltas must carry their payloads
// byte for byte, and golden_deltas must hold the same lines but for their
// MACs.

// goldenDeltaRound lists the data lines round r of the history writes, in
// order, repeats included; each round ends in a delta checkpoint.
func goldenDeltaRound(r int) []uint64 {
	const lines = 4 << 20 / LineBytes
	var ds []uint64
	switch r {
	case 0: // one full counter block a shard, then a hot line until its set overflows
		for d := uint64(0); d < 256; d++ {
			ds = append(ds, d)
		}
		for i := 0; i < 40; i++ {
			ds = append(ds, 6)
		}
	case 1: // scattered first writes, and the other shard's hot line
		for i := uint64(0); i < 100; i++ {
			ds = append(ds, (i*977+3)%lines)
		}
		for i := 0; i < 40; i++ {
			ds = append(ds, 7)
		}
	case 2: // rewrites of round 0's lines, and the far end of the store
		for d := uint64(0); d < 64; d++ {
			ds = append(ds, d, lines-1-d/2)
		}
	}
	return ds
}

// keepRecords reads one engine's share of a state stream with the decoder
// every reader uses, secmem.ReadRecords, and keeps the lines.
func keepRecords(r io.Reader) (lines []secmem.DirtyLine, err error) {
	err = secmem.ReadRecords(r, func(batch []secmem.DirtyLine) error {
		for _, d := range batch {
			d.Line = bytes.Clone(d.Line)
			lines = append(lines, d)
		}
		return nil
	})
	return lines, err
}

// keepShards is a ReadState callback that keeps every shard's lines in into.
func keepShards(into *[][]secmem.DirtyLine) func(ckpt.DeltaHeader, int, io.Reader) error {
	return func(_ ckpt.DeltaHeader, _ int, r io.Reader) error {
		lines, err := keepRecords(r)
		*into = append(*into, lines)
		return err
	}
}

// readDeltaLines reads a state stream file the way Open does and keeps the lines.
func readDeltaLines(path string, key []byte, seq, base uint64) (ckpt.DeltaHeader, [][]secmem.DirtyLine, error) {
	var lines [][]secmem.DirtyLine
	hdr, err := ckpt.ReadDelta(path, key, seq, base, keepShards(&lines))
	return hdr, lines, err
}

func TestGoldenDeltasReproduce(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 4<<20)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	defer m.Close()
	version := map[uint64]int{}
	for r := 0; r < 3; r++ {
		for _, d := range goldenDeltaRound(r) {
			version[d]++
			if err := m.Write(d*LineBytes, parentDirLine(d, version[d])); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.CheckpointDelta(); err != nil {
			t.Fatal(err)
		}
		seq := uint64(r + 2)
		name := ckpt.DeltaName(seq, seq-1)
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata/st3_deltas", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes written, not st3_deltas' %d byte for byte", name, len(got), len(want))
		}
		checkSamePayload(t, filepath.Join("testdata/cw_deltas", name), filepath.Join("testdata/st3_deltas", name), seq, seq-1)
		_, lines, err := readDeltaLines(filepath.Join(dir, name), deltaKey(testKey), seq, seq-1)
		if err != nil {
			t.Fatal(err)
		}
		if len(lines) != 2 || len(lines[0]) < 2 || len(lines[1]) < 2 {
			t.Fatalf("%s: read back with %d shards", name, len(lines))
		}
		// The parent's file: refused by the reader, and the same lines.
		parent := filepath.Join("testdata/golden_deltas", name)
		var ve *secmem.VersionError
		if _, _, err := readDeltaLines(parent, deltaKey(testKey), seq, seq-1); !errors.As(err, &ve) || ve.Version != 1 {
			t.Fatalf("%s: ReadDelta returned %v, want a *secmem.VersionError naming version 1", parent, err)
		}
		checkOnlyMACsMoved(t, parent, readV1Stream(t, parent, seq, seq-1), lines, func(level int32) bool { return level >= -1 })
	}
	if st := m.Stats(); st.Overflows[0] == 0 {
		t.Fatal("the history did not overflow a counter")
	}
}

// TestOneDecoderReadsEveryImage: engine state used to leave a process five
// ways, each with a decoder of its own. It is one record stream now, so one
// function — secmem.ReadRecords — must read an engine's share out of every
// full image, and read the same lines: secmem.Save and a snapshot file, which
// is also what a replica bootstraps from.
func TestOneDecoderReadsEveryImage(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 1<<20)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncNone})
	defer m.Close()
	for i := uint64(0); i < 300; i++ {
		d := i * 37 % 4096
		if err := m.Write(d*LineBytes, parentDirLine(d, int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	decode := func(r io.Reader) []secmem.DirtyLine {
		t.Helper()
		lines, err := keepRecords(r)
		if err != nil {
			t.Fatal(err)
		}
		return lines
	}
	skip := func(r io.Reader, n int64) io.Reader {
		t.Helper()
		if _, err := io.CopyN(io.Discard, r, n); err != nil {
			t.Fatal(err)
		}
		return r
	}

	_, want, err := readDeltaLines(SnapshotPath(dir, 2), deltaKey(testKey), 2, 0) // the snapshot file
	if err != nil {
		t.Fatal(err)
	}
	if len(want[0]) < 150 || len(want[1]) < 150 {
		t.Fatalf("the snapshot file holds %d and %d lines", len(want[0]), len(want[1]))
	}
	images := map[string][][]secmem.DirtyLine{}

	var save bytes.Buffer
	if err := m.Sharded().Shard(0).Save(&save); err != nil {
		t.Fatal(err)
	}
	images["secmem.Save"] = [][]secmem.DirtyLine{decode(skip(&save, secmem.HeaderBytes)), want[1]}

	for name, got := range images {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d and %d lines decoded, not the %d and %d of the snapshot file", name, len(got[0]), len(got[1]), len(want[0]), len(want[1]))
		}
	}
}
