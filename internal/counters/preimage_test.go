package counters

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"github.com/securemem/morphtree/internal/racedetect"
)

// The engine no longer decodes a line's values before every increment in case
// it overflows: it copies the line into a spare block (CopyFrom) and decodes
// the copy only if the increment did overflow. This is the differential for
// that: through long write histories over every organization, at every
// Increment, the values read from the copy afterwards are the values read from
// the line itself just before, and the copy encodes to the bytes the line
// encoded to — it shares nothing with the line that the increment could have
// moved.

// preimageSeen is what a history reached, so that a test can tell it reached
// what it was written to reach.
type preimageSeen struct {
	formats                        map[string]bool
	zccWidths                      map[int]bool
	rebases, setResets, fullResets int
}

// preimageRun takes a fresh line of spec through writes increments of slot(w),
// checking the lazy pre-image against the eager one at each.
func preimageRun(t *testing.T, spec Spec, writes int, slot func(w int) int) preimageSeen {
	t.Helper()
	seen := preimageSeen{formats: map[string]bool{}, zccWidths: map[int]bool{}}
	blk, spare := spec.New(), spec.New()
	eager := make([]uint64, spec.Arity)
	lazy := make([]uint64, spec.Arity)
	rng := rand.New(rand.NewSource(int64(writes)))
	for w := 0; w < writes; w++ {
		blk.SetMAC(rng.Uint64())
		seen.formats[blk.FormatName()] = true
		if m, ok := blk.(*Morph); ok && m.format == FormatZCC {
			seen.zccWidths[ZCCSize(m.nonzero)] = true
		}
		blk.Values(eager)
		before := blk.Encode()

		spare.CopyFrom(blk)
		i := slot(w)
		ev := blk.Increment(i)

		spare.Values(lazy)
		if !slices.Equal(lazy, eager) {
			t.Fatalf("%s, write %d (slot %d, %+v): the copy's values differ from the line's before the increment\n copy %v\n line %v",
				spec.Name, w, i, ev, lazy, eager)
		}
		if got := spare.Encode(); !bytes.Equal(got, before) {
			t.Fatalf("%s, write %d: the copy encodes to\n%x\nthe line encoded to\n%x", spec.Name, w, got, before)
		}
		if blk.Value(i) <= eager[i] {
			t.Fatalf("%s, write %d: slot %d did not move forward: %d -> %d", spec.Name, w, i, eager[i], blk.Value(i))
		}
		switch {
		case ev.Rebased:
			seen.rebases++
		case ev.Overflow && ev.Reencrypt < spec.Arity:
			seen.setResets++
		case ev.Overflow:
			seen.fullResets++
		}
	}
	return seen
}

func TestLazyPreimageMatchesEagerValues(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	// Three shapes of history, one after another on the same line. Widening:
	// the touched range grows slowly, so a Morph line dwells in every ZCC
	// width before it goes dense. Sweeps: every slot in turn, so the minors
	// rise together and a dense line rebases. Hot: one slot in a set hammered
	// while its neighbours rest, so a set with a zero in it has to reset.
	history := func(arity int) func(int) int {
		return func(w int) int {
			switch phase := w / 20000; phase % 3 {
			case 0:
				return rng.Intn(1 + w%20000/150%arity)
			case 1:
				return w % arity
			default:
				if w%5 == 0 {
					return rng.Intn(arity)
				}
				return (w / 4000 * 37) % arity
			}
		}
	}
	const writes = 120000

	for _, rebasing := range []bool{true, false} {
		spec := MorphSpec(rebasing)
		seen := preimageRun(t, spec, writes, history(spec.Arity))
		for _, width := range []int{16, 8, 7, 6, 5, 4} {
			if !seen.zccWidths[width] {
				t.Errorf("%s: no increment met the line in ZCC at %d bits a counter", spec.Name, width)
			}
		}
		dense := FormatUniform
		if rebasing {
			dense = FormatMCR
			if seen.rebases == 0 || seen.setResets == 0 {
				t.Errorf("%s: %d rebases and %d set resets, want some of each", spec.Name, seen.rebases, seen.setResets)
			}
		}
		if !seen.formats[dense.String()] || seen.fullResets == 0 {
			t.Errorf("%s: formats %v, %d full resets: the dense format or the full reset was never reached", spec.Name, seen.formats, seen.fullResets)
		}
	}
	for _, arity := range splitArities {
		spec := SplitSpec(arity)
		// SC-8's and SC-16's minors, 48 and 24 bits, overflow in no history
		// a test can run.
		if seen := preimageRun(t, spec, writes, history(arity)); seen.fullResets == 0 && arity > 16 {
			t.Errorf("%s: no overflow in %d writes", spec.Name, writes)
		}
	}
	spec := DeltaSpec()
	if seen := preimageRun(t, spec, writes, history(spec.Arity)); seen.rebases == 0 || seen.fullResets == 0 {
		t.Errorf("%s: %d rebases and %d resets, want some of each", spec.Name, seen.rebases, seen.fullResets)
	}
}

func TestCopyFromDoesNotAllocate(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, spec := range []Spec{MorphSpec(true), SplitSpec(64), DeltaSpec()} {
		blk, spare := spec.New(), spec.New()
		blk.Increment(3)
		if n := testing.AllocsPerRun(100, func() { spare.CopyFrom(blk) }); n != 0 {
			t.Errorf("%s: CopyFrom allocates %v times, want 0", spec.Name, n)
		}
	}
}
