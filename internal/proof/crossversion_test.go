package proof_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"github.com/securemem/morphtree/internal/counters"
	"github.com/securemem/morphtree/internal/invariant"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/racedetect"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
)

// testdata/parent_proof_<line>.bin are proofs built by the commit before the
// word-wise codec and the pre-keyed MAC (how:
// internal/counters/testdata/README.md): 40 lines written three times each
// into a 2-shard, 4 MiB morph128 store, then Prove on three of them and on
// one never-written line. A proof carries sealed counter lines and MACs
// across the trust boundary, so old proofs must verify under the new Walker
// and new proofs must be what an old verifier expects: the same ciphertext,
// data MAC and encryption-counter values, in a chain that verifies. The chain's
// bytes are not compared — the tree counts write-backs now, not writes
// (internal/counters/testdata/README.md).

const parentProofMem = 4 << 20

func parentProofLine(d uint64, v int) []byte {
	line := make([]byte, secmem.LineBytes)
	for i := range line {
		line[i] = byte(d*131 + uint64(v)*17 + uint64(i))
	}
	return line
}

func parentProofEngine(t *testing.T) (*shard.Sharded, proof.Params) {
	t.Helper()
	enc, tree, err := shard.Organization("morph128")
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.New(shard.Config{Shards: 2, Mem: secmem.Config{MemoryBytes: parentProofMem, Enc: enc, Tree: tree, Key: masterKey}})
	if err != nil {
		t.Fatal(err)
	}
	for d := uint64(0); d < 40; d++ {
		for v := 1; v <= 3; v++ {
			if err := sh.Write(d*secmem.LineBytes, parentProofLine(d, v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sh, proof.Params{MemoryBytes: parentProofMem, Shards: 2, Enc: enc, Tree: tree}
}

func TestParentProofsVerify(t *testing.T) {
	sh, params := parentProofEngine(t)
	for _, d := range []uint64{0, 17, 39, 5000} {
		raw, err := os.ReadFile(fmt.Sprintf("testdata/parent_proof_%d.bin", d))
		if err != nil {
			t.Fatal(err)
		}
		p, err := proof.DecodeProof(raw)
		if err != nil {
			t.Fatalf("line %d: %v", d, err)
		}
		got, err := p.Verify(params, masterKey, nil)
		if err != nil {
			t.Fatalf("line %d: the parent's proof does not verify: %v", d, err)
		}
		want := make([]byte, secmem.LineBytes) // 5000 was never written
		if d < 40 {
			want = parentProofLine(d, 3)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("line %d: the parent's proof verifies to the wrong plaintext", d)
		}

		// The other direction: the same history on this commit proves the
		// same line under the same counters.
		mine, err := sh.Prove(d * secmem.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mine.Line, p.Line) || mine.LineMAC != p.LineMAC {
			t.Fatalf("line %d: this commit's proof carries a different ciphertext or MAC than the parent's for the same history", d)
		}
		if (mine.Chain[0] == nil) != (p.Chain[0] == nil) {
			t.Fatalf("line %d: encryption-counter line present in one proof only", d)
		}
		if p.Chain[0] != nil {
			theirs, err := params.Enc.Decode(p.Chain[0])
			if err != nil {
				t.Fatal(err)
			}
			ours, err := params.Enc.Decode(mine.Chain[0])
			if err != nil {
				t.Fatal(err)
			}
			for slot := 0; slot < theirs.Arity(); slot++ {
				if ours.Value(slot) != theirs.Value(slot) {
					t.Fatalf("line %d: encryption counter %d is %d, the parent's was %d", d, slot, ours.Value(slot), theirs.Value(slot))
				}
			}
		}
		if got, err = mine.Verify(params, masterKey, nil); err != nil {
			t.Fatalf("line %d: this commit's proof does not verify: %v", d, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("line %d: this commit's proof verifies to the wrong plaintext", d)
		}
	}
}

func TestDecodeVerifyAllocatesOnlyTheBlock(t *testing.T) {
	if racedetect.Enabled || invariant.Enabled {
		t.Skip("allocation counts mean nothing under the race detector or with morphdebug assertions compiled in")
	}
	sh, _ := parentProofEngine(t)
	p, err := sh.Prove(0) // global line 0: shard 0, slot 0 at every level
	if err != nil {
		t.Fatal(err)
	}
	key, err := proof.DeriveShardKey(masterKey, 0)
	if err != nil {
		t.Fatal(err)
	}
	morph := counters.MorphSpec(true)
	w, err := proof.NewWalker(morph, []counters.Spec{morph}, key, 0)
	if err != nil {
		t.Fatal(err)
	}
	root, err := morph.Decode(p.Root)
	if err != nil {
		t.Fatal(err)
	}
	// Walk down once to learn each link's parent value, then count.
	parents := make([]uint64, len(p.Chain))
	parent := root
	for level := len(p.Chain) - 1; level >= 0; level-- {
		parents[level] = parent.Value(0)
		if parent, err = w.DecodeVerify(level, 0, p.Chain[level], parents[level]); err != nil {
			t.Fatal(err)
		}
	}
	for level := range p.Chain {
		level := level
		if n := testing.AllocsPerRun(200, func() {
			if _, err := w.DecodeVerify(level, 0, p.Chain[level], parents[level]); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Errorf("DecodeVerify at level %d allocates %v times, want at most 1 (the returned block)", level, n)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := w.VerifyData(p.Line, parent.Value(0), 0, p.LineMAC); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("VerifyData allocates %v times, want 0", n)
	}
}
