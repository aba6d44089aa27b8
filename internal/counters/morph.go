package counters

import (
	"fmt"

	"github.com/securemem/morphtree/internal/invariant"
)

// MorphArity is the number of counters in a Morphable Counter cacheline.
const MorphArity = 128

// morphSetSize is the number of counters per MCR base (one 4KB page worth).
const morphSetSize = 64

// Format identifies the active representation of a Morphable Counter line.
type Format uint8

const (
	// FormatZCC is Zero Counter Compression: a 128-bit bit-vector marks
	// non-zero counters and 256 bits are shared equally among them.
	FormatZCC Format = iota
	// FormatUniform packs 128 x 3-bit counters under the 57-bit major
	// (the ZCC-only variant's dense representation).
	FormatUniform
	// FormatMCR packs two sets of 64 x 3-bit counters, each with a 7-bit
	// base that can be moved forward (rebased) to absorb overflows.
	FormatMCR
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatZCC:
		return "ZCC"
	case FormatUniform:
		return "uniform"
	case FormatMCR:
		return "MCR"
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

// ZCCSize returns the per-counter width, in bits, that Zero Counter
// Compression allots when nonzero counters are in use (Section III-B: the
// 256-bit non-zero field is divided equally). A result of 3 means the line
// has left ZCC for the dense uniform/MCR representation.
func ZCCSize(nonzero int) int {
	switch {
	case nonzero <= 16:
		return 16
	case nonzero <= 32:
		return 8
	case nonzero <= 36:
		return 7
	case nonzero <= 42:
		return 6
	case nonzero <= 51:
		return 5
	case nonzero <= morphSetSize:
		return 4
	default:
		return 3
	}
}

// zccMax is the largest value a size-bit ZCC counter can hold.
func zccMax(size int) uint16 { return uint16(1<<uint(size) - 1) }

// zccMajorBits is the major-counter width in the ZCC and uniform layouts.
const zccMajorBits = 57

// mcrMajorBits is the major-counter width in the MCR layout; the remaining
// 7+7 bits hold the two bases.
const mcrMajorBits = 49

// mcrBaseMax is the largest value a 7-bit MCR base can hold.
const mcrBaseMax = 127

// uniformMax is the largest value a 3-bit dense minor can hold.
const uniformMax = 7

// Morph is a Morphable Counter cacheline (MorphCtr-128). It holds 128
// counters in 64 bytes by morphing between ZCC (sparse usage) and a dense
// 3-bit representation (uniform usage). With rebasing enabled the dense
// representation is MCR: two 64-counter sets whose 7-bit bases advance by
// the smallest minor instead of resetting, avoiding re-encryption when all
// counters grow together.
type Morph struct {
	rebasing bool
	format   Format
	// major is the 57-bit major counter in ZCC/uniform, or the 49-bit
	// high part (paper's Major Counter) in MCR.
	major uint64
	base  [2]uint32 // 7-bit bases, valid in FormatMCR
	// minors are 16 bits because no format gives a counter more (ZCC's
	// widest is 16); at 128 to a line their width is most of the size of a
	// decoded block, which every cold tree walk allocates.
	minors  [MorphArity]uint16
	nonzero int
	mac     uint64
}

// NewMorph returns a zeroed Morphable Counter block. rebasing enables the
// MCR dense format; without it the dense format is plain 3-bit uniform
// (the ZCC-only configuration of Figure 11).
func NewMorph(rebasing bool) *Morph {
	return &Morph{rebasing: rebasing, format: FormatZCC}
}

// Arity implements Block.
func (m *Morph) Arity() int { return MorphArity }

// NonZero implements Block.
func (m *Morph) NonZero() int { return m.nonzero }

// MAC implements Block.
func (m *Morph) MAC() uint64 { return m.mac }

// SetMAC implements Block.
func (m *Morph) SetMAC(v uint64) { m.mac = v }

// Format returns the active representation.
func (m *Morph) Format() Format { return m.format }

// FormatName implements Block.
func (m *Morph) FormatName() string { return m.format.String() }

// Value implements Block. ZCC/uniform: major + minor. MCR: (major||base) +
// minor, where the 49-bit major and 7-bit base concatenate into the same
// 56-bit effective space (Section IV).
func (m *Morph) Value(i int) uint64 {
	switch m.format {
	case FormatMCR:
		return (m.major<<mcrBaseBits | uint64(m.base[i/morphSetSize])) + uint64(m.minors[i])
	default:
		return m.major + uint64(m.minors[i])
	}
}

// Values implements Block.
func (m *Morph) Values(dst []uint64) {
	dst = dst[:MorphArity]
	if m.format != FormatMCR {
		for i, v := range m.minors {
			dst[i] = m.major + uint64(v)
		}
		return
	}
	for set, base := range m.base {
		origin := m.major<<mcrBaseBits | uint64(base)
		lo := set * morphSetSize
		for i, v := range m.minors[lo : lo+morphSetSize] {
			dst[lo+i] = origin + uint64(v)
		}
	}
}

// CopyFrom implements Block.
func (m *Morph) CopyFrom(src Block) { *m = *src.(*Morph) }

// Increment implements Block.
func (m *Morph) Increment(i int) Event {
	switch m.format {
	case FormatZCC:
		return m.incrementZCC(i)
	case FormatUniform:
		return m.incrementUniform(i)
	case FormatMCR:
		return m.incrementMCR(i)
	}
	panic(invariant.Violationf("counters: invalid morph format %v", m.format))
}

// incrementZCC handles an increment while in the sparse representation.
func (m *Morph) incrementZCC(i int) Event {
	size := ZCCSize(m.nonzero)
	if m.minors[i] == 0 {
		// The counter population grows; the representation may need to
		// shrink every counter (Figure 9b's reorganization).
		newNZ := m.nonzero + 1
		if newNZ > morphSetSize {
			return m.leaveZCC(i)
		}
		newSize := ZCCSize(newNZ)
		if newSize < size && m.largest() > zccMax(newSize) {
			// An existing value cannot be represented at the
			// smaller width: handled as an overflow.
			return m.resetAll(i)
		}
		m.minors[i] = 1
		m.nonzero = newNZ
		if newSize != size {
			return Event{FormatSwitch: true}
		}
		return Event{}
	}
	if m.minors[i] == zccMax(size) {
		return m.resetAll(i)
	}
	m.minors[i]++
	return Event{}
}

// leaveZCC transitions from ZCC to the dense representation when the 65th
// counter becomes non-zero. Effective values are preserved (the ZCC major
// splits into MCR's major||base), so no re-encryption is needed — unless an
// existing value exceeds the 3-bit dense maximum, which is an overflow.
func (m *Morph) leaveZCC(i int) Event {
	if m.largest() > uniformMax {
		return m.resetAll(i)
	}
	if m.rebasing {
		m.format = FormatMCR
		low := uint32(m.major & mcrBaseMax)
		m.base[0], m.base[1] = low, low
		m.major >>= mcrBaseBits
	} else {
		m.format = FormatUniform
	}
	m.minors[i] = 1
	m.nonzero++
	return Event{FormatSwitch: true}
}

// incrementUniform handles the dense 3-bit format without rebasing.
func (m *Morph) incrementUniform(i int) Event {
	if m.minors[i] == uniformMax {
		return m.resetAll(i)
	}
	if m.minors[i] == 0 {
		m.nonzero++
	}
	m.minors[i]++
	return Event{}
}

// incrementMCR handles the dense format with Minor Counter Rebasing.
func (m *Morph) incrementMCR(i int) Event {
	if m.minors[i] != uniformMax {
		if m.minors[i] == 0 {
			m.nonzero++
		}
		m.minors[i]++
		return Event{}
	}
	set := i / morphSetSize
	lo, hi := set*morphSetSize, (set+1)*morphSetSize
	minV, maxV := m.minors[lo], m.minors[lo]
	for _, v := range m.minors[lo+1 : hi] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if minV > 0 {
		// Rebase: slide the base forward by the smallest minor. No
		// effective value changes, so the overflow (and its 64
		// re-encryptions) is avoided entirely.
		if uint64(m.base[set])+uint64(minV) > mcrBaseMax {
			return m.resetMCR(i)
		}
		m.base[set] += uint32(minV)
		for j := lo; j < hi; j++ {
			if m.minors[j] == minV {
				m.nonzero-- // this minor rebases to zero
			}
			m.minors[j] -= minV
		}
		if m.minors[i] == 0 {
			m.nonzero++
		}
		m.minors[i]++ // now fits: it was 7, rebased to 7-minV <= 6
		return Event{Rebased: true}
	}
	// The set contains a zero counter: rebasing is impossible. Reset the
	// set, advancing its base past the largest minor so no value repeats.
	if uint64(m.base[set])+uint64(maxV)+1 > mcrBaseMax {
		return m.resetMCR(i)
	}
	m.base[set] += uint32(maxV) + 1
	for j := lo; j < hi; j++ {
		if m.minors[j] != 0 {
			m.nonzero--
		}
		m.minors[j] = 0
	}
	m.minors[i] = 1
	m.nonzero++
	return Event{Overflow: true, Reencrypt: morphSetSize}
}

// resetMCR handles an MCR base overflow: both sets reset, the 49-bit major
// advances by two (so (major+2)<<7 clears every prior (major||base)+minor),
// and the line returns to ZCC (Section IV-2).
func (m *Morph) resetMCR(i int) Event {
	m.major = (m.major + 2) << mcrBaseBits
	m.format = FormatZCC
	m.base[0], m.base[1] = 0, 0
	for j := range m.minors {
		m.minors[j] = 0
	}
	m.minors[i] = 1
	m.nonzero = 1
	return Event{Overflow: true, Reencrypt: MorphArity, FormatSwitch: true}
}

// resetAll is the ZCC/uniform overflow path: the major advances by the
// largest minor plus one (so no major+minor value repeats) and all minors
// reset. All 128 children must be re-encrypted.
func (m *Morph) resetAll(i int) Event {
	switched := m.format != FormatZCC
	m.major += uint64(m.largest()) + 1
	m.format = FormatZCC
	for j := range m.minors {
		m.minors[j] = 0
	}
	m.minors[i] = 1
	m.nonzero = 1
	return Event{Overflow: true, Reencrypt: MorphArity, FormatSwitch: switched}
}

// largest returns the maximum minor counter value in the line.
func (m *Morph) largest() uint16 {
	var max uint16
	for _, v := range m.minors {
		if v > max {
			max = v
		}
	}
	return max
}
