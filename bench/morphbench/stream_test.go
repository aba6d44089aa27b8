package main

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// hashOps fingerprints an op sequence.
func hashOps(ops []op) uint64 {
	h := fnv.New64a()
	var b [9]byte
	for _, o := range ops {
		b[0] = 0
		if o.write {
			b[0] = 1
		}
		binary.LittleEndian.PutUint64(b[1:], o.slot)
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestStreamRepeatsForSeedAndDiffersAcrossSeeds(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for caller := 0; caller < w.callers; caller += max(w.callers-1, 1) {
			a := hashOps(newStream(w, 7, spanLines, caller, w.callers).take(5000))
			b := hashOps(newStream(w, 7, spanLines, caller, w.callers).take(5000))
			c := hashOps(newStream(w, 8, spanLines, caller, w.callers).take(5000))
			if a != b {
				t.Errorf("%s caller %d: same seed gave different op streams", w.name, caller)
			}
			if a == c {
				t.Errorf("%s caller %d: seeds 7 and 8 gave the same op stream", w.name, caller)
			}
		}
		if w.callers > 1 {
			a := hashOps(newStream(w, 7, spanLines, 0, w.callers).take(5000))
			b := hashOps(newStream(w, 7, spanLines, 1, w.callers).take(5000))
			if a == b {
				t.Errorf("%s: callers 0 and 1 issue the same ops", w.name)
			}
		}
	}
}

func TestStreamMixAndRange(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		ops := newStream(w, 3, spanLines, 0, w.callers).take(20000)
		owned := ownedLines(spanLines, w.callers)
		for _, o := range ops {
			if o.slot >= owned {
				t.Fatalf("%s: slot %d beyond the caller's %d lines", w.name, o.slot, owned)
			}
		}
		got, want := writeFraction(ops), float64(w.writePct)/100
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("%s: write fraction %.3f, want about %.2f", w.name, got, want)
		}
	}
}

func TestOwnershipIsDisjointAndCoversEveryShard(t *testing.T) {
	const span = 1 << 10
	for _, callers := range []int{1, 2, 8} {
		owner := make(map[uint64]int)
		for c := 0; c < callers; c++ {
			shards := make(map[uint64]bool)
			for slot := uint64(0); slot < ownedLines(span, callers); slot++ {
				d := lineOf(slot, c, callers)
				if d >= span {
					t.Fatalf("callers=%d: caller %d slot %d maps to line %d beyond the span", callers, c, slot, d)
				}
				if (d/numShards)%uint64(callers) != uint64(c) {
					t.Fatalf("callers=%d: line %d given to caller %d breaks the ownership rule", callers, d, c)
				}
				if prev, taken := owner[d]; taken {
					t.Fatalf("callers=%d: line %d owned by callers %d and %d", callers, d, prev, c)
				}
				owner[d] = c
				shards[d%numShards] = true
			}
			if len(shards) != numShards {
				t.Errorf("callers=%d: caller %d touches %d of %d shards", callers, c, len(shards), numShards)
			}
		}
		if len(owner) != span {
			t.Errorf("callers=%d: %d of %d lines owned", callers, len(owner), span)
		}
	}
}

func TestFillLineDependsOnSeedLineAndVersion(t *testing.T) {
	line := func(seed int64, l uint64, v uint32) []byte {
		b := make([]byte, lineBytes)
		fillLine(b, seed, l, v)
		return b
	}
	base := line(1, 2, 3)
	if !bytes.Equal(base, line(1, 2, 3)) {
		t.Error("same (seed, line, version) gave different content")
	}
	for name, other := range map[string][]byte{"seed": line(2, 2, 3), "line": line(1, 3, 3), "version": line(1, 2, 4)} {
		if bytes.Equal(base, other) {
			t.Errorf("content ignores the %s", name)
		}
	}
}
