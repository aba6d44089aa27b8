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
// went when every serialisation of the engine became the state stream: Load
// answers it with a *VersionError. The sealed lines in it are still this
// engine's lines, so v1Records walks them out and they go in the way every
// line now does. testdata/v2_save.bin is the same history saved by the commit
// that made the change, and loads.

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

func TestParentSaveLoadsAndVerifies(t *testing.T) {
	blob, man := readParentSave(t)
	cfg := parentConfig(man.MemoryBytes)
	_, err := Load(cfg, bytes.NewReader(blob))
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Magic != persistMagic || ve.Version != 1 {
		t.Fatalf("Load of a version-1 Save stream returned %v, want a *VersionError naming it", err)
	}
	checkFixtureState(t, loadV1(t, cfg, blob), man)
}

// TestV2SaveLoadsAndVerifies holds this format to the fixture the commit that
// introduced it wrote: it loads, verifies, takes writes, and Load then Save
// is the identity.
func TestV2SaveLoadsAndVerifies(t *testing.T) {
	_, man := readParentSave(t) // the same history
	blob, err := os.ReadFile("testdata/v2_save.bin")
	if err != nil {
		t.Fatal(err)
	}
	cfg := parentConfig(man.MemoryBytes)
	m, err := Load(cfg, bytes.NewReader(blob))
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

// The generator's write sequence, run on this commit, must leave what the
// design fixes: every ciphertext, data MAC and encryption-counter value the
// parent left, through the same level-0 events. Counter lines' MACs and the
// levels above are not compared: the tree counts write-backs now, not writes,
// so they legitimately differ (internal/counters/testdata/README.md).
func TestReplayedWritesMatchParentSave(t *testing.T) {
	blob, man := readParentSave(t)
	m, err := New(parentConfig(man.MemoryBytes))
	if err != nil {
		t.Fatal(err)
	}
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
		if !bytes.Equal(mine.data[d], ct) || mine.dataMAC[d] != theirs.dataMAC[d] {
			t.Fatalf("data line %d: the same writes leave a different ciphertext or MAC than on the parent commit", d)
		}
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
