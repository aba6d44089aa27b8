// Package counters implements the counter-cacheline organizations at the
// heart of the paper: conventional split counters (SC-n) and Morphable
// Counters (MorphCtr-128) with Zero Counter Compression (ZCC) and Minor
// Counter Rebasing (MCR).
//
// A counter cacheline ("block") is a 64-byte line holding one shared major
// counter, Arity() minor counters, and a 64-bit MAC. Blocks are used both as
// encryption counters (one minor counter per data cacheline) and as
// integrity-tree counters (one minor counter per child tree entry). The
// block's arity therefore sets the integrity tree's fan-in.
//
// The security contract every implementation must honor is that effective
// counter values move strictly forward: Increment(i) makes Value(i) strictly
// larger than before, and never decreases any Value(j). Counter-mode
// encryption pads are derived from these values, so any reuse would leak
// plaintext (Section V of the paper).
package counters

import "fmt"

// LineBytes is the size of a counter cacheline.
const LineBytes = 64

// LineBits is the size of a counter cacheline in bits.
const LineBits = LineBytes * 8

// Event describes the side effects of a counter increment. The costs matter:
// an overflow changes the effective value of sibling counters, forcing the
// memory controller to re-encrypt (or re-hash, for tree levels) every
// affected child line — Reencrypt reads plus Reencrypt writes of extra
// memory traffic.
type Event struct {
	// Overflow reports that sibling counters were reset (or advanced), so
	// their effective values changed and their children must be
	// re-encrypted / re-hashed.
	Overflow bool
	// Reencrypt is the number of child lines whose effective counter
	// changed and must be rewritten. It is the block arity on a full
	// reset, or the set size (64) on an MCR per-set reset.
	Reencrypt int
	// Rebased reports that an MCR rebase absorbed a would-be overflow
	// without changing any effective value (no extra traffic).
	Rebased bool
	// FormatSwitch reports a ZCC<->uniform/MCR representation change.
	// Re-encoding happens on a write and is off the critical path; it
	// costs no memory traffic.
	FormatSwitch bool
}

// Block is a 64-byte counter cacheline.
type Block interface {
	// Arity returns the number of minor counters in the line.
	Arity() int
	// Value returns the effective counter value of slot i, the value fed
	// (with the line address) into the block cipher.
	Value(i int) uint64
	// Values stores Value(i) into dst[i] for every slot; dst holds at
	// least Arity() elements. It is the bulk form an engine snapshots a
	// line with before an increment that may overflow.
	Values(dst []uint64)
	// Increment advances counter i by one write and reports side effects.
	Increment(i int) Event
	// CopyFrom makes the block an exact copy of src, which must be a block
	// of the same organization (the same Spec made both); it allocates
	// nothing. It is how an engine keeps an increment's pre-image without
	// decoding it: copy the line into a spare block, increment, and only if
	// that overflowed ask the copy for the Values every slot had before.
	CopyFrom(src Block)
	// NonZero returns the number of non-zero minor counters.
	NonZero() int
	// MAC returns the 64-bit MAC field co-located in the line.
	MAC() uint64
	// SetMAC stores the 64-bit MAC field.
	SetMAC(uint64)
	// Encode packs the block into its exact 64-byte hardware layout.
	Encode() []byte
	// EncodeTo is Encode into the first LineBytes bytes of dst, every one
	// of which it overwrites; it allocates nothing.
	EncodeTo(dst []byte)
	// FormatName names the current representation (for stats/debug).
	FormatName() string
}

// Spec describes a counter organization and constructs fresh blocks of it.
type Spec struct {
	// Name is a short identifier such as "SC-64" or "MorphCtr-128".
	Name string
	// Arity is the number of counters per cacheline, i.e. the tree fan-in
	// this organization provides.
	Arity int
	// New allocates a zeroed block.
	New func() Block
	// Decode unpacks a 64-byte line written by a block of this spec.
	Decode func(buf []byte) (Block, error)
}

// String returns the spec name.
func (s Spec) String() string { return s.Name }

// ArityError reports a split-counter arity with no defined cacheline
// layout. Valid arities divide the 384-bit minor field evenly: 8, 16, 32,
// 64, 128.
type ArityError struct {
	// Arity is the rejected counters-per-line value.
	Arity int
}

// Error implements error.
func (e *ArityError) Error() string {
	return fmt.Sprintf("counters: unsupported split-counter arity %d (want 8, 16, 32, 64, or 128)", e.Arity)
}

// NewSplitSpec returns the split-counter organization with the given arity,
// or an *ArityError if no layout exists for it. Use this form when the
// arity comes from configuration or user input.
func NewSplitSpec(arity int) (Spec, error) {
	bits, ok := splitMinorBits[arity]
	if !ok {
		return Spec{}, &ArityError{Arity: arity}
	}
	return Spec{
		Name:   fmt.Sprintf("SC-%d", arity),
		Arity:  arity,
		New:    func() Block { return NewSplit(arity, bits) },
		Decode: func(buf []byte) (Block, error) { return DecodeSplit(buf, arity) },
	}, nil
}

// SplitSpec is NewSplitSpec for statically known-good arities: it panics
// with an *ArityError on an unsupported arity.
func SplitSpec(arity int) Spec {
	spec, err := NewSplitSpec(arity)
	if err != nil {
		panic(err) //morphlint:allow panicpolicy -- Must-style constructor for compile-time arities; NewSplitSpec is the checked form
	}
	return spec
}

// MorphSpec returns the Morphable Counter organization (128 counters per
// line). rebasing selects between the full design (ZCC+Rebasing) and the
// ZCC-only variant evaluated in Figure 11.
func MorphSpec(rebasing bool) Spec {
	name := "MorphCtr-128"
	if !rebasing {
		name = "MorphCtr-128-ZCC"
	}
	return Spec{
		Name:   name,
		Arity:  MorphArity,
		New:    func() Block { return NewMorph(rebasing) },
		Decode: func(buf []byte) (Block, error) { return DecodeMorph(buf, rebasing) },
	}
}

// splitMinorBits maps a split-counter arity to its minor counter width. The
// minor field has 512 - 64 (major) - 64 (MAC) = 384 bits.
var splitMinorBits = map[int]int{
	8:   48,
	16:  24,
	32:  12,
	64:  6,
	128: 3,
}

// MinorBitsFor returns the split-counter minor width for an arity, or an
// *ArityError if no layout exists for it.
func MinorBitsFor(arity int) (int, error) {
	bits, ok := splitMinorBits[arity]
	if !ok {
		return 0, &ArityError{Arity: arity}
	}
	return bits, nil
}

// MinorBits is MinorBitsFor for statically known-good arities, for use in
// analytic models. It panics with an *ArityError on unsupported arities.
func MinorBits(arity int) int {
	bits, err := MinorBitsFor(arity)
	if err != nil {
		panic(err) //morphlint:allow panicpolicy -- Must-style accessor for compile-time arities; MinorBitsFor is the checked form
	}
	return bits
}
