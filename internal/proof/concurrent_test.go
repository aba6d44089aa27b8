package proof_test

import (
	"errors"
	"sync"
	"testing"

	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/tree"
)

// One Walker shared by sixteen goroutines, as a thin client's verifiers would
// share it: each walks every proof's chain from the root down and checks the
// data MAC, and offers a replayed counter, which must be refused. The
// Walker's only mutable state is its Keyer's hash scratch, under the Keyer's
// lock; -race is what looks at it.
func TestConcurrentWalksOnOneWalker(t *testing.T) {
	sh, params := testEngine(t)
	const lines = 24
	proofs := make([]*proof.Proof, lines)
	for d := range proofs {
		addr := uint64(d) * testShards * proof.LineBytes // every line on shard 0
		buf := make([]byte, proof.LineBytes)
		buf[0] = byte(d)
		for v := 0; v <= d%3; v++ {
			if err := sh.Write(addr, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	for d := range proofs {
		p, err := sh.Prove(uint64(d) * testShards * proof.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		proofs[d] = p
	}
	key, err := proof.DeriveShardKey(masterKey, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := proof.NewWalker(params.Enc, params.Tree, key, params.MACWidth)
	if err != nil {
		t.Fatal(err)
	}
	geom, err := tree.New(testMem/testShards, params.Enc.Arity, []int{params.Tree[0].Arity})
	if err != nil {
		t.Fatal(err)
	}

	// walk verifies shard-0 local line d's proof with the shared walker.
	walk := func(d uint64, p *proof.Proof) error {
		rootLevel := geom.RootLevel()
		// The path's line at each level, bottom-up, as Proof.Verify finds it.
		idx := make([]uint64, rootLevel)
		var slot int
		idx[0], slot = geom.EncSlot(d)
		for l := 0; l+1 < rootLevel; l++ {
			idx[l+1], _ = geom.ParentSlot(l, idx[l])
		}
		blk, err := w.SpecAt(rootLevel).Decode(p.Root)
		if err != nil {
			return err
		}
		for l := rootLevel - 1; l >= 0; l-- {
			_, pslot := geom.ParentSlot(l, idx[l])
			if blk, err = w.DecodeVerify(l, idx[l], p.Chain[l], blk.Value(pslot)); err != nil {
				return err
			}
		}
		ctr, local := blk.Value(slot), d*proof.LineBytes
		if err := w.VerifyData(p.Line, ctr, local, p.LineMAC); err != nil {
			return err
		}
		var me *proof.MismatchError
		if err := w.VerifyData(p.Line, ctr+1, local, p.LineMAC); !errors.As(err, &me) {
			return errors.New("a data line verified under a counter it was not sealed with")
		}
		return nil
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for d, p := range proofs {
					if err := walk(uint64(d), p); err != nil {
						t.Errorf("goroutine %d, line %d: %v", g, d, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
