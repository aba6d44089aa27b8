package counters

import "github.com/securemem/morphtree/internal/invariant"

// Split is a conventional split-counter cacheline (Yan et al., ISCA 2006):
// one 64-bit major counter shared by Arity minor counters of minorBits each.
// The effective counter value is the concatenation major||minor, so a minor
// overflow is handled by incrementing the major and resetting every minor —
// which changes all effective values and forces re-encryption of all
// children.
type Split struct {
	arity     int
	minorBits int
	major     uint64
	minors    []uint64
	nonzero   int
	mac       uint64
}

// NewSplit returns a zeroed split-counter block. The layout must fit the
// 384-bit minor field (morphdebug-asserted); arities from SplitSpec and
// NewSplitSpec always do.
func NewSplit(arity, minorBits int) *Split {
	invariant.Assertf(arity*minorBits <= splitMinorFieldBits,
		"counters: split layout %d x %d-bit exceeds %d-bit minor field", arity, minorBits, splitMinorFieldBits)
	return &Split{
		arity:     arity,
		minorBits: minorBits,
		minors:    make([]uint64, arity),
	}
}

// Arity implements Block.
func (s *Split) Arity() int { return s.arity }

// NonZero implements Block.
func (s *Split) NonZero() int { return s.nonzero }

// MAC implements Block.
func (s *Split) MAC() uint64 { return s.mac }

// SetMAC implements Block.
func (s *Split) SetMAC(m uint64) { s.mac = m }

// FormatName implements Block.
func (s *Split) FormatName() string { return "split" }

// maxMinor is the largest value a minor counter can hold.
func (s *Split) maxMinor() uint64 { return 1<<uint(s.minorBits) - 1 }

// Value implements Block: the effective value is major||minor.
func (s *Split) Value(i int) uint64 {
	return s.major<<uint(s.minorBits) | s.minors[i]
}

// Values implements Block.
func (s *Split) Values(dst []uint64) {
	hi := s.major << uint(s.minorBits)
	for i, v := range s.minors {
		dst[i] = hi | v
	}
}

// CopyFrom implements Block. The minors are copied into the receiver's own
// slice, so the two blocks share nothing afterwards.
func (s *Split) CopyFrom(src Block) {
	o := src.(*Split)
	if o.arity != s.arity {
		panic(invariant.Violationf("counters: SC-%d block copied from an SC-%d block", s.arity, o.arity))
	}
	minors := s.minors
	copy(minors, o.minors)
	*s = *o
	s.minors = minors
}

// Increment implements Block. When minor i saturates, the major counter is
// incremented and all minors reset (a full overflow): every child's
// effective value jumps to the new major||0 (or major||1 for the written
// child), so all Arity children need re-encryption.
func (s *Split) Increment(i int) Event {
	if s.minors[i] < s.maxMinor() {
		if s.minors[i] == 0 {
			s.nonzero++
		}
		s.minors[i]++
		return Event{}
	}
	// Overflow: advance the major so that no concatenated value repeats,
	// then reset minors and apply the pending increment.
	s.major++
	for j := range s.minors {
		s.minors[j] = 0
	}
	s.minors[i] = 1
	s.nonzero = 1
	return Event{Overflow: true, Reencrypt: s.arity}
}
