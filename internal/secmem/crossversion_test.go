package secmem

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"strconv"
	"testing"

	"github.com/securemem/morphtree/internal/counters"
)

// testdata/parent_save.bin is a Save stream written by the commit before the
// word-wise codec, seal-once and the pre-keyed MAC (how:
// internal/counters/testdata/README.md); parent_save.json says which lines
// it holds and how often each was written. Its container, version 1 of "MTSM",
// went when every serialisation of the engine became the state stream, and
// testdata/v2_save.bin, the same history saved by the commit that made that
// change, went when the line MAC became GHASH-then-AES: Load answers both with
// a *VersionError. testdata/cw_save.bin is the same history saved by the
// commit that changed the MAC (internal/counters/testdata/cwgen.go.txt), and
// loads. The older files' sealed lines are walked out by test-only readers and
// held to cw_save.bin's: only their MACs may differ.

type stateManifest struct {
	MemoryBytes uint64         `json:"memory_bytes"`
	Versions    map[string]int `json:"versions"`
}

// stateLine is the plaintext the fixture generator wrote at line d on its
// v-th write.
func stateLine(d uint64, v int) []byte {
	line := make([]byte, LineBytes)
	for i := range line {
		line[i] = byte(d*131 + uint64(v)*17 + uint64(i))
	}
	return line
}

func parentConfig(memBytes uint64) Config {
	morph := counters.MorphSpec(true)
	return Config{MemoryBytes: memBytes, Enc: morph, Tree: []counters.Spec{morph}, Key: []byte("0123456789abcdef")}
}

func readParentSave(t *testing.T) ([]byte, stateManifest) {
	t.Helper()
	blob, err := os.ReadFile("testdata/parent_save.bin")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/parent_save.json")
	if err != nil {
		t.Fatal(err)
	}
	var man stateManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	return blob, man
}

// v1Records walks a version-1 Save stream into the records of a full image.
// The fixture is trusted: nothing is validated.
func v1Records(blob []byte) []DirtyLine {
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(blob); blob = blob[8:]; return v }
	take := func(n uint64) []byte { b := blob[:n]; blob = blob[n:]; return b }
	take(4) // "MTSM"
	u64()   // 1
	lines := []DirtyLine{{Level: configLevel, Index: u64(), Line: take(u64())}}
	root := take(LineBytes)
	levels := u64()
	lines = append(lines, DirtyLine{Level: int32(levels), Line: root})
	for lvl := uint64(0); lvl < levels; lvl++ {
		for n := u64(); n > 0; n-- {
			lines = append(lines, DirtyLine{Level: int32(lvl), Index: u64(), Line: take(LineBytes)})
		}
	}
	for n := u64(); n > 0; n-- {
		lines = append(lines, DirtyLine{Level: -1, Index: u64(), Line: take(LineBytes), MAC: u64()})
	}
	return lines
}

// loadV1 is what Load did with a version-1 stream, through Apply.
func loadV1(t *testing.T, cfg Config, blob []byte) *Memory {
	t.Helper()
	m := mustNew(t, cfg)
	if err := m.Apply(v1Records(blob)); err != nil {
		t.Fatal(err)
	}
	return m
}

// checkFixtureState reads a fixture's state back against its manifest and
// then writes on it, through an overflow of a line the fixture's commit sealed.
func checkFixtureState(t *testing.T, m *Memory, man stateManifest) {
	t.Helper()
	if err := m.VerifyAll(); err != nil {
		t.Fatalf("the fixture's state fails verification: %v", err)
	}
	for key, v := range man.Versions {
		d, err := strconv.ParseUint(key, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Read(d * LineBytes)
		if err != nil {
			t.Fatalf("line %d: %v", d, err)
		}
		if !bytes.Equal(got, stateLine(d, v)) {
			t.Fatalf("line %d reads back wrong from the fixture's state", d)
		}
	}
	before := m.Stats().Overflows[0]
	for i := 0; i < 40; i++ {
		if err := m.Write(5*LineBytes, stateLine(5, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().Overflows[0] == before {
		t.Fatal("forty writes to one line of the fixture's MCR block did not overflow it")
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatalf("after writes on the fixture's state: %v", err)
	}
}

func readSave(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// v2Records reads the full image out of a version-2 Save stream: the state
// stream behind a header, as today.
func v2Records(t *testing.T, blob []byte) []DirtyLine {
	t.Helper()
	var lines []DirtyLine
	err := ReadRecords(bytes.NewReader(blob[HeaderBytes:]), func(batch []DirtyLine) error {
		for _, d := range batch {
			d.Line = bytes.Clone(d.Line)
			lines = append(lines, d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// checkOnlyMACsMoved holds an older fixture's lines to cw_save.bin's for the
// same history at every level compare admits: the same lines, each with the
// same bytes but for its MAC (a data line's MAC field, a counter line's MAC
// word).
func checkOnlyMACsMoved(t *testing.T, old []DirtyLine, compare func(level int32) bool) {
	t.Helper()
	type at struct {
		level int32
		index uint64
	}
	masked := func(d DirtyLine) string {
		line := bytes.Clone(d.Line)
		if d.Level >= 0 {
			counters.SetLineMAC(line, 0)
		}
		return string(line)
	}
	cw := map[at]string{}
	for _, d := range v2Records(t, readSave(t, "cw_save.bin")) {
		if compare(d.Level) {
			cw[at{d.Level, d.Index}] = masked(d)
		}
	}
	n, macs := 0, 0
	for _, d := range old {
		if !compare(d.Level) {
			continue
		}
		n++
		want, ok := cw[at{d.Level, d.Index}]
		if !ok || masked(d) != want {
			t.Fatalf("level %d line %d: not cw_save.bin's line but for its MAC", d.Level, d.Index)
		}
		if d.Level == -1 {
			macs++
		}
	}
	if n != len(cw) || macs == 0 {
		t.Fatalf("%d lines compared (%d data), cw_save.bin holds %d", n, macs, len(cw))
	}
}

func TestParentSaveLoadsAndVerifies(t *testing.T) {
	blob, man := readParentSave(t)
	cfg := parentConfig(man.MemoryBytes)
	_, err := Load(cfg, bytes.NewReader(blob))
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Magic != persistMagic || ve.Version != 1 {
		t.Fatalf("Load of a version-1 Save stream returned %v, want a *VersionError naming it", err)
	}
	// The parent's tree counted writes, not write-backs, so its lines above
	// level 0 hold other counters (internal/counters/testdata/README.md).
	checkOnlyMACsMoved(t, v1Records(blob), func(level int32) bool { return level <= 0 && level != configLevel })
}

// TestV2SaveLoadsAndVerifies: the fixture of the format's second version is
// refused whole, and its lines are the current fixture's at every level but
// for their MACs.
func TestV2SaveLoadsAndVerifies(t *testing.T) {
	_, man := readParentSave(t) // the same history
	blob := readSave(t, "v2_save.bin")
	_, err := Load(parentConfig(man.MemoryBytes), bytes.NewReader(blob))
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Magic != persistMagic || ve.Version != 2 {
		t.Fatalf("Load of a version-2 Save stream returned %v, want a *VersionError naming it", err)
	}
	checkOnlyMACsMoved(t, v2Records(t, blob), func(level int32) bool { return level != configLevel })
}

// TestCWSaveLoadsAndVerifies holds this format to the fixture the commit that
// introduced it wrote: it loads, verifies, takes writes, and Load then Save
// is the identity.
func TestCWSaveLoadsAndVerifies(t *testing.T) {
	_, man := readParentSave(t) // the same history
	blob := readSave(t, "cw_save.bin")
	m, err := Load(parentConfig(man.MemoryBytes), bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := m.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), blob) {
		t.Fatal("Load then Save of the fixture is not the fixture")
	}
	checkFixtureState(t, m, man)
}

// writeFixtureHistory writes the fixture generator's history into m
// (internal/counters/testdata/cwgen.go.txt's genSecmem) and returns how often
// it wrote each line.
func writeFixtureHistory(t *testing.T, m *Memory) map[uint64]int {
	t.Helper()
	versions := map[uint64]int{}
	write := func(d uint64, times int) {
		t.Helper()
		for i := 0; i < times; i++ {
			versions[d]++
			if err := m.Write(d*LineBytes, stateLine(d, versions[d])); err != nil {
				t.Fatal(err)
			}
		}
	}
	for d := uint64(0); d < 66; d++ {
		write(d, 1)
	}
	write(3, 20)
	write(130, 1)
	write(131, 2)
	write(129, 300)
	write(128*200+5, 3)
	write(128*255+127, 1)
	return versions
}

// TestSaveWritesCWSave holds Save's bytes to the fixture: the generator's
// history, written into a fresh engine, saves as cw_save.bin byte for byte.
func TestSaveWritesCWSave(t *testing.T) {
	_, man := readParentSave(t)
	m, err := New(parentConfig(man.MemoryBytes))
	if err != nil {
		t.Fatal(err)
	}
	writeFixtureHistory(t, m)
	if err := m.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := m.Save(&got); err != nil {
		t.Fatal(err)
	}
	if want := readSave(t, "cw_save.bin"); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Save wrote %d bytes, not cw_save.bin's %d byte for byte", got.Len(), len(want))
	}
}

// The generator's write sequence, run on this commit, must leave what the
// design fixes: every ciphertext and encryption-counter value the parent
// left, through the same level-0 events, and every data MAC cw_save.bin holds
// (the parent's were HMAC's). Counter lines' MACs and the levels above are
// not compared with the parent's: the tree counts write-backs now, not
// writes, so they legitimately differ (internal/counters/testdata/README.md).
func TestReplayedWritesMatchParentSave(t *testing.T) {
	blob, man := readParentSave(t)
	m, err := New(parentConfig(man.MemoryBytes))
	if err != nil {
		t.Fatal(err)
	}
	versions := writeFixtureHistory(t, m)
	for d, v := range versions {
		if man.Versions[strconv.FormatUint(d, 10)] != v {
			t.Fatalf("replay wrote line %d %d times, manifest says %d", d, v, man.Versions[strconv.FormatUint(d, 10)])
		}
	}
	parent := loadV1(t, parentConfig(man.MemoryBytes), blob)
	mine, theirs := modelOf(m.Store()), modelOf(parent.Store())
	if len(mine.data) != len(theirs.data) || len(mine.levels[0]) != len(theirs.levels[0]) {
		t.Fatalf("%d data and %d counter lines stored, parent stored %d and %d",
			len(mine.data), len(mine.levels[0]), len(theirs.data), len(theirs.levels[0]))
	}
	for d, ct := range theirs.data {
		if !bytes.Equal(mine.data[d], ct) {
			t.Fatalf("data line %d: the same writes leave a different ciphertext than on the parent commit", d)
		}
	}
	cw := 0
	for _, d := range v2Records(t, readSave(t, "cw_save.bin")) {
		if d.Level != -1 {
			continue
		}
		cw++
		if mine.dataMAC[d.Index] != d.MAC {
			t.Fatalf("data line %d: the same writes leave MAC %#x, cw_save.bin holds %#x", d.Index, mine.dataMAC[d.Index], d.MAC)
		}
	}
	if cw != len(mine.data) {
		t.Fatalf("cw_save.bin holds %d data lines, the replay stored %d", cw, len(mine.data))
	}
	enc := parentConfig(man.MemoryBytes).Enc
	for idx, raw := range theirs.levels[0] {
		want, err := enc.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		got, err := enc.Decode(mine.levels[0][idx])
		if err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < want.Arity(); slot++ {
			if got.Value(slot) != want.Value(slot) {
				t.Fatalf("counter line %d slot %d: value %d, parent had %d", idx, slot, got.Value(slot), want.Value(slot))
			}
		}
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Overflows[0] != 2 || st.Rebases[0] != 1 || st.FormatSwitches[0] != 6 || st.Reencryptions != 126 {
		t.Fatalf("level-0 event counts moved: overflows %v rebases %v switches %v re-encryptions %d (parent: [2 ..] [1 ..] [6 ..] 126)",
			st.Overflows, st.Rebases, st.FormatSwitches, st.Reencryptions)
	}
}
