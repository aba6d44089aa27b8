package counters

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"github.com/securemem/morphtree/internal/invariant"
	"github.com/securemem/morphtree/internal/racedetect"
)

// testdata/golden_lines.jsonl holds encoded lines written by the bit-serial
// codec at the commit before the word-wise rewrite (testdata/README.md says
// how). The line format is an on-disk and on-wire format — snapshots, WAL
// replay and proofs all carry these bytes — so the rewrite must reproduce
// every one of them exactly, in both directions.
type goldenLine struct {
	Org     string   `json:"org"`
	Seed    int64    `json:"seed"`
	Touch   int      `json:"touch"`
	Writes  int      `json:"writes"`
	MAC     uint64   `json:"mac"`
	Format  string   `json:"format"`
	NonZero int      `json:"nonzero"`
	Line    string   `json:"line"`
	Values  []uint64 `json:"values"`
}

func goldenSpec(t testing.TB, org string) Spec {
	t.Helper()
	switch org {
	case "morph":
		return MorphSpec(true)
	case "morph-zcc":
		return MorphSpec(false)
	case "delta":
		return DeltaSpec()
	}
	var arity int
	if _, err := fmt.Sscanf(org, "split-%d", &arity); err != nil {
		t.Fatalf("golden organization %q: %v", org, err)
	}
	return SplitSpec(arity)
}

// bytes returns the golden encoding.
func (g goldenLine) bytes(t testing.TB) []byte {
	t.Helper()
	line, err := hex.DecodeString(g.Line)
	if err != nil || len(line) != LineBytes {
		t.Fatalf("golden %s line %q: %v", g.Org, g.Line, err)
	}
	return line
}

// replay rebuilds a golden line's block the way the generator did: touch
// slots 0..touch-1 once each in order, then `writes` increments on
// rng.Intn(touch), then the MAC from the same stream.
func (g goldenLine) replay(spec Spec) Block {
	blk := spec.New()
	rng := rand.New(rand.NewSource(g.Seed))
	for i := 0; i < g.Touch; i++ {
		blk.Increment(i)
	}
	for w := 0; w < g.Writes; w++ {
		blk.Increment(rng.Intn(g.Touch))
	}
	blk.SetMAC(rng.Uint64())
	return blk
}

func readGoldenLines(t testing.TB) []goldenLine {
	t.Helper()
	f, err := os.Open("testdata/golden_lines.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []goldenLine
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var g goldenLine
		if err := json.Unmarshal(sc.Bytes(), &g); err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGoldenLines(t *testing.T) {
	zccWidths := map[int]bool{}
	formats := map[string]bool{}
	for _, g := range readGoldenLines(t) {
		name := fmt.Sprintf("%s/touch%d/writes%d", g.Org, g.Touch, g.Writes)
		spec := goldenSpec(t, g.Org)
		want := g.bytes(t)

		// Encode: the replayed state packs to the parent's bytes.
		blk := g.replay(spec)
		if blk.MAC() != g.MAC || blk.FormatName() != g.Format || blk.NonZero() != g.NonZero {
			t.Fatalf("%s: replay reached %s/%d non-zero/MAC %#x, golden has %s/%d/%#x",
				name, blk.FormatName(), blk.NonZero(), blk.MAC(), g.Format, g.NonZero, g.MAC)
		}
		if got := blk.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("%s: Encode\n got %x\nwant %x", name, got, want)
		}
		into := bytes.Repeat([]byte{0xFF}, LineBytes)
		blk.EncodeTo(into)
		if !bytes.Equal(into, want) {
			t.Fatalf("%s: EncodeTo over a dirty buffer\n got %x\nwant %x", name, into, want)
		}

		// Decode: the parent's bytes unpack to the parent's state.
		dec, err := spec.Decode(want)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if dec.MAC() != g.MAC || dec.FormatName() != g.Format || dec.NonZero() != g.NonZero {
			t.Fatalf("%s: decoded %s/%d non-zero/MAC %#x, golden has %s/%d/%#x",
				name, dec.FormatName(), dec.NonZero(), dec.MAC(), g.Format, g.NonZero, g.MAC)
		}
		bulk := make([]uint64, dec.Arity())
		dec.Values(bulk)
		for i, v := range g.Values {
			if dec.Value(i) != v || bulk[i] != v {
				t.Fatalf("%s: slot %d decodes to %d (bulk %d), golden has %d", name, i, dec.Value(i), bulk[i], v)
			}
		}
		if got := dec.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("%s: decode then Encode\n got %x\nwant %x", name, got, want)
		}

		formats[g.Org+"/"+g.Format] = true
		if g.Format == "ZCC" {
			zccWidths[ZCCSize(g.NonZero)] = true
		}
	}
	// The file must keep covering what it was generated to cover.
	for _, w := range []int{16, 8, 7, 6, 5, 4} {
		if !zccWidths[w] {
			t.Errorf("no golden ZCC line with %d-bit counters", w)
		}
	}
	for _, f := range []string{"morph/ZCC", "morph/MCR", "morph-zcc/uniform", "delta/delta",
		"split-8/split", "split-16/split", "split-32/split", "split-64/split", "split-128/split"} {
		if !formats[f] {
			t.Errorf("no golden line for %s", f)
		}
	}
}

// Sealing patches the MAC into an already encoded line; that must be the
// line a second Encode would have produced.
func TestSetLineMACMatchesReencode(t *testing.T) {
	for _, g := range readGoldenLines(t) {
		blk := g.replay(goldenSpec(t, g.Org))
		blk.SetMAC(0)
		line := blk.Encode()
		SetLineMAC(line, g.MAC)
		blk.SetMAC(g.MAC)
		if want := blk.Encode(); !bytes.Equal(line, want) {
			t.Fatalf("%s: patched line\n got %x\nwant %x", g.Org, line, want)
		}
	}
}

func TestEncodeToDoesNotAllocate(t *testing.T) {
	if racedetect.Enabled || invariant.Enabled {
		t.Skip("allocation counts mean nothing under the race detector or with morphdebug assertions compiled in")
	}
	dst := make([]byte, LineBytes)
	vals := make([]uint64, MorphArity)
	for _, g := range readGoldenLines(t) {
		blk := g.replay(goldenSpec(t, g.Org))
		if n := testing.AllocsPerRun(100, func() { blk.EncodeTo(dst) }); n != 0 {
			t.Errorf("%s %s: EncodeTo allocates %v times, want 0", g.Org, g.Format, n)
		}
		if n := testing.AllocsPerRun(100, func() { blk.Values(vals) }); n != 0 {
			t.Errorf("%s %s: Values allocates %v times, want 0", g.Org, g.Format, n)
		}
	}
}
