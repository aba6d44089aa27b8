package secmem

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"github.com/securemem/morphtree/internal/counters"
)

// testdata/parent_save.bin is a Save stream written by the commit before the
// word-wise codec, seal-once and the pre-keyed MAC (how:
// internal/counters/testdata/README.md); parent_save.json says which lines
// it holds and how often each was written. No format version moved, so that
// commit's state must load here — and this commit's state there, which the
// byte-for-byte comparison below stands in for.

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

func TestParentSaveLoadsAndVerifies(t *testing.T) {
	blob, man := readParentSave(t)
	m, err := Load(parentConfig(man.MemoryBytes), bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatalf("parent state fails verification: %v", err)
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
			t.Fatalf("line %d reads back wrong after loading the parent's state", d)
		}
	}
	// The loaded state is live: it takes writes (through an overflow of
	// the parent-sealed MCR line) and stays consistent.
	for i := 0; i < 40; i++ {
		if err := m.Write(5*LineBytes, stateLine(5, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatalf("after writes on parent state: %v", err)
	}
	// And nothing was re-encoded differently on the way through.
	m2, err := Load(parentConfig(man.MemoryBytes), bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := m2.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), blob) {
		t.Fatal("Load then Save of the parent's stream is not the parent's stream")
	}
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
	parent, err := Load(parentConfig(man.MemoryBytes), bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
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
