package proof_test

import (
	"bytes"
	"errors"
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
// across the trust boundary. Those MACs were HMAC's, and the body had no
// header, so DecodeProof answers the parent's bytes with a
// *secmem.VersionError. testdata/cw_proof_<line>.bin are the same four proofs
// built by the commit that made the line MAC GHASH-then-AES (cwgen.go.txt):
// they must verify under this Walker, and this commit must build them byte
// for byte. Read behind a header, the parent's proofs must still carry the
// same ciphertext and encryption-counter values as ours: only the MACs moved.
// The chain's bytes above level 0 are not compared with the parent's — the
// tree counts write-backs now, not writes
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
		want := make([]byte, secmem.LineBytes) // 5000 was never written
		if d < 40 {
			want = parentProofLine(d, 3)
		}
		mine, err := sh.Prove(d * secmem.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mine.Verify(params, masterKey, nil)
		if err != nil {
			t.Fatalf("line %d: this commit's proof does not verify: %v", d, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("line %d: this commit's proof verifies to the wrong plaintext", d)
		}

		// The fixture of this format: built byte for byte, and verifies.
		cwRaw, err := os.ReadFile(fmt.Sprintf("testdata/cw_proof_%d.bin", d))
		if err != nil {
			t.Fatal(err)
		}
		mineRaw, err := mine.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mineRaw, cwRaw) {
			t.Fatalf("line %d: the same history proves to other bytes than cw_proof_%d.bin", d, d)
		}
		cw, err := proof.DecodeProof(cwRaw)
		if err != nil {
			t.Fatalf("line %d: %v", d, err)
		}
		if got, err = cw.Verify(params, masterKey, nil); err != nil {
			t.Fatalf("line %d: cw_proof_%d.bin does not verify: %v", d, d, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("line %d: cw_proof_%d.bin verifies to the wrong plaintext", d, d)
		}

		// The parent's: refused, and, read behind a header, the same
		// ciphertext and encryption counters under other MACs.
		raw, err := os.ReadFile(fmt.Sprintf("testdata/parent_proof_%d.bin", d))
		if err != nil {
			t.Fatal(err)
		}
		var ve *secmem.VersionError
		if _, err := proof.DecodeProof(raw); !errors.As(err, &ve) {
			t.Fatalf("line %d: DecodeProof of the parent's proof returned %v, want a *secmem.VersionError", d, err)
		}
		p, err := proof.DecodeProof(append(cwRaw[:secmem.HeaderBytes:secmem.HeaderBytes], raw...))
		if err != nil {
			t.Fatalf("line %d: the parent's body behind a header: %v", d, err)
		}
		if !bytes.Equal(mine.Line, p.Line) {
			t.Fatalf("line %d: this commit's proof carries a different ciphertext than the parent's for the same history", d)
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
		var me *proof.MismatchError
		if _, err := p.Verify(params, masterKey, nil); d < 40 && !errors.As(err, &me) {
			t.Fatalf("line %d: the parent's HMAC-sealed proof verified under this MAC: %v", d, err)
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
