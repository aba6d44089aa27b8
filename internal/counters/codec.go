package counters

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/securemem/morphtree/internal/bitops"
	"github.com/securemem/morphtree/internal/invariant"
)

// Cacheline layouts (Figures 8 and 13). Field widths follow the paper
// exactly; field order places the 1-bit format tag first so a line is
// self-describing to the decoder, which is how the memory controller must
// interpret it anyway ("decoding ... only requires indexing into the
// bit-vector", Section III-B2).
//
//	ZCC:     F(1)=0 | Ctr-Sz(6) | Major(57) | Bit-Vector(128) | Non-Zero Ctrs(256) | MAC(64)
//	Uniform: F(1)=1 | Ctr-Sz(6) | Major(57) | 128 x 3-bit Minors(384)             | MAC(64)
//	MCR:     F(1)=1 | Major(49) | Base-1(7) | Base-2(7) | 2 x 64 x 3-bit(384)     | MAC(64)
//	Split:   Major(64) | n x (384/n)-bit Minors(384)                              | MAC(64)
//
// A system is configured either with rebasing (dense format = MCR) or
// without (dense format = Uniform); the decoder is told which, exactly as
// the hardware would be.
//
// Bits are MSB-first, so a line is eight big-endian words: the header is
// word 0, the MAC word 7, the ZCC bit-vector words 1-2. The codecs below
// move whole fields, or whole words of fields, through bitops; nothing
// loops per bit.

// Shared field widths of the layouts above.
const (
	// fullMajorBits is a full-width (untruncated) major counter or base
	// field, as used by the Split and Delta layouts.
	fullMajorBits = 64
	// macBits is the per-line MAC field closing every layout.
	macBits = 64
	// splitMinorFieldBits is the split-counter minor field:
	// 512 - 64 (major) - 64 (MAC) bits.
	splitMinorFieldBits = LineBits - fullMajorBits - macBits
	// zccNonZeroFieldBits is ZCC's shared non-zero counter field.
	zccNonZeroFieldBits = 256
	// ctrSzBits is the Ctr-Sz field of the ZCC and uniform headers.
	ctrSzBits = 6
	// denseMinorBits is the minor width of the dense (uniform, MCR) formats.
	denseMinorBits = 3
	// mcrBaseBits is the width of each MCR base.
	mcrBaseBits = 7
	// presentWords is the ZCC bit-vector in words.
	presentWords = MorphArity / bitops.WordBits
)

// macOffset is where the MAC field starts: every layout closes with it, so
// it is the line's last word.
const macOffset = LineBytes - macBits/8

// SetLineMAC overwrites the MAC field of an encoded line in place. Encoding
// a block with a zero MAC, MACing those bytes and patching the result in
// gives exactly the line a second Encode would.
func SetLineMAC(line []byte, mac uint64) {
	binary.BigEndian.PutUint64(line[macOffset:LineBytes], mac)
}

// LineFault says why a line cannot be decoded.
type LineFault uint8

// The ways a 64-byte buffer can fail to be a line some encoder produced.
const (
	// FaultLength: the buffer is not LineBytes long.
	FaultLength LineFault = iota + 1
	// FaultPopulation: a ZCC bit-vector marks more counters non-zero than
	// the format can hold.
	FaultPopulation
	// FaultCtrSz: the Ctr-Sz field disagrees with the bit-vector
	// population (ZCC) or with the dense minor width (uniform).
	FaultCtrSz
	// FaultZeroValue: a ZCC slot marked non-zero holds the value 0.
	FaultZeroValue
	// FaultPadding: unused bits are not zero, so the line is not the
	// canonical encoding of anything.
	FaultPadding
)

// LineError reports a buffer no encoder of the organization produces: the
// line is corrupt, or was written under another configuration.
type LineError struct {
	// Fault classifies the defect.
	Fault LineFault
	msg   string
}

// Error implements error.
func (e *LineError) Error() string { return "counters: " + e.msg }

func lineErrorf(fault LineFault, format string, args ...any) *LineError {
	return &LineError{Fault: fault, msg: fmt.Sprintf(format, args...)}
}

// encodeLine is Block.Encode in terms of Block.EncodeTo.
func encodeLine(b Block) []byte {
	line := make([]byte, LineBytes)
	b.EncodeTo(line)
	return line
}

// minor is the element type of a minor-counter array.
type minor interface{ ~uint16 | ~uint32 | ~uint64 }

// writeFields packs a run of equal-width fields, gathering as many as fit a
// word (21 three-bit minors, say) before handing them to the writer.
func writeFields[T minor](w *bitops.Writer, vals []T, width int) {
	per := bitops.WordBits / width
	shift := uint(width)
	for len(vals) > 0 {
		n := min(per, len(vals))
		var chunk uint64
		for _, v := range vals[:n] {
			chunk = chunk<<shift | uint64(v)
		}
		w.WriteBits(chunk, n*width)
		vals = vals[n:]
	}
}

// readFields is writeFields' inverse; it returns how many fields are
// non-zero.
func readFields[T minor](r *bitops.Reader, vals []T, width int) (nonzero int) {
	per := bitops.WordBits / width
	shift := uint(width)
	mask := uint64(1)<<shift - 1
	for len(vals) > 0 {
		n := min(per, len(vals))
		chunk := r.ReadBits(n * width)
		for i := n - 1; i >= 0; i-- {
			v := chunk & mask
			chunk >>= shift
			vals[i] = T(v)
			nonzero += int(min(v, 1)) // 1 iff v != 0, without a branch
		}
		vals = vals[n:]
	}
	return nonzero
}

// dense3 unpacks three dense minors at once: indexed by their nine bits, first
// minor highest, an entry holds the three values in 16-bit lanes, first
// lowest, and in its top lane how many of them are non-zero. A dense line is
// what every cold tree walk decodes, and its 128 minors are most of that
// work; 4 KiB of table does it in a third of the steps.
var dense3 = func() (t [1 << (3 * denseMinorBits)]uint64) {
	for i := range t {
		a, b, c := uint64(i>>(2*denseMinorBits)), uint64(i>>denseMinorBits&uniformMax), uint64(i&uniformMax)
		t[i] = a | b<<16 | c<<32 | (min(a, 1)+min(b, 1)+min(c, 1))<<48
	}
	return t
}()

// readDense is readFields for the 128 three-bit minors of a uniform or MCR
// line, through dense3.
func readDense(r *bitops.Reader, minors *[MorphArity]uint16) (nonzero int) {
	// 21 minors, seven table entries, fill all but one bit of a word.
	const per = bitops.WordBits / denseMinorBits
	rest := minors[:]
	for len(rest) >= per {
		chunk := r.ReadBits(per*denseMinorBits) << (bitops.WordBits - per*denseMinorBits) // left-aligned
		for dst := rest[:per]; len(dst) >= 3; dst = dst[3:] {
			e := dense3[chunk>>(bitops.WordBits-3*denseMinorBits)]
			chunk <<= 3 * denseMinorBits
			dst[0], dst[1], dst[2] = uint16(e), uint16(e>>16), uint16(e>>32)
			nonzero += int(e >> 48)
		}
		rest = rest[per:]
	}
	return nonzero + readFields(r, rest, denseMinorBits)
}

// writeZeros writes n zero bits, a word at a time.
func writeZeros(w *bitops.Writer, n int) {
	for ; n > bitops.WordBits; n -= bitops.WordBits {
		w.WriteBits(0, bitops.WordBits)
	}
	w.WriteBits(0, n)
}

// readZeros consumes n bits and reports whether all of them were zero.
func readZeros(r *bitops.Reader, n int) bool {
	var seen uint64
	for ; n > bitops.WordBits; n -= bitops.WordBits {
		seen |= r.ReadBits(bitops.WordBits)
	}
	return seen|r.ReadBits(n) == 0
}

// Encode implements Block for Split.
func (s *Split) Encode() []byte { return encodeLine(s) }

// EncodeTo implements Block for Split.
func (s *Split) EncodeTo(dst []byte) {
	w := bitops.NewWriter(dst[:LineBytes])
	w.WriteBits(s.major, fullMajorBits)
	writeFields(&w, s.minors, s.minorBits)
	w.WriteBits(s.mac, macBits)
	invariant.Assertf(w.Pos() == LineBits, "counters: split layout packed %d bits", w.Pos())
}

// DecodeSplit unpacks a split-counter line with the given geometry.
func DecodeSplit(buf []byte, arity int) (*Split, error) {
	if len(buf) != LineBytes {
		return nil, lineErrorf(FaultLength, "split line is %d bytes, want %d", len(buf), LineBytes)
	}
	minorBits, ok := splitMinorBits[arity]
	if !ok {
		return nil, &ArityError{Arity: arity}
	}
	r := bitops.NewReader(buf)
	s := NewSplit(arity, minorBits)
	s.major = r.ReadBits(fullMajorBits)
	s.nonzero = readFields(&r, s.minors, minorBits)
	s.mac = r.ReadBits(macBits)
	return s, nil
}

// Encode implements Block for Morph.
func (m *Morph) Encode() []byte { return encodeLine(m) }

// EncodeTo implements Block for Morph.
func (m *Morph) EncodeTo(dst []byte) {
	w := bitops.NewWriter(dst[:LineBytes])
	switch m.format {
	case FormatZCC:
		size := ZCCSize(m.nonzero)
		w.WriteBits(0, 1)
		w.WriteBits(uint64(size), ctrSzBits)
		w.WriteBits(m.major, zccMajorBits)
		// Slot i is bit i of the bit-vector, MSB-first.
		var present [presentWords]uint64
		for k := range present {
			var word uint64
			for _, v := range m.minors[k*bitops.WordBits : (k+1)*bitops.WordBits] {
				word = word<<1 | uint64((v|-v)>>15) // 1 iff v != 0
			}
			present[k] = word
			w.WriteBits(word, bitops.WordBits)
		}
		packed := 0
		for k, word := range present {
			for word != 0 {
				lead := bits.LeadingZeros64(word)
				word &^= 1 << uint(bitops.WordBits-1-lead)
				w.WriteBits(uint64(m.minors[k*bitops.WordBits+lead]), size)
				packed += size
			}
		}
		writeZeros(&w, zccNonZeroFieldBits-packed) // unused tail of the non-zero field
	case FormatUniform:
		w.WriteBits(1, 1)
		w.WriteBits(denseMinorBits, ctrSzBits)
		w.WriteBits(m.major, zccMajorBits)
		writeFields(&w, m.minors[:], denseMinorBits)
	case FormatMCR:
		w.WriteBits(1, 1)
		w.WriteBits(m.major, mcrMajorBits)
		w.WriteBits(uint64(m.base[0]), mcrBaseBits)
		w.WriteBits(uint64(m.base[1]), mcrBaseBits)
		writeFields(&w, m.minors[:], denseMinorBits)
	}
	w.WriteBits(m.mac, macBits)
	invariant.Assertf(w.Pos() == LineBits, "counters: morph %s layout packed %d bits", m.format, w.Pos())
}

// DecodeMorph unpacks a Morphable Counter line. rebasing tells the decoder
// whether the dense format (tag bit 1) is MCR or plain uniform, matching the
// system configuration the line was written under.
func DecodeMorph(buf []byte, rebasing bool) (*Morph, error) {
	if len(buf) != LineBytes {
		return nil, lineErrorf(FaultLength, "morph line is %d bytes, want %d", len(buf), LineBytes)
	}
	r := bitops.NewReader(buf)
	m := NewMorph(rebasing)
	dense := r.ReadBits(1) == 1
	switch {
	case !dense:
		m.format = FormatZCC
		size := int(r.ReadBits(ctrSzBits))
		m.major = r.ReadBits(zccMajorBits)
		var present [presentWords]uint64
		count := 0
		for k := range present {
			present[k] = r.ReadBits(bitops.WordBits)
			count += bits.OnesCount64(present[k])
		}
		// Validate Ctr-Sz against the bit-vector population before
		// trusting it as a field width.
		if count > morphSetSize {
			return nil, lineErrorf(FaultPopulation, "ZCC bit-vector has %d non-zero counters (max %d)", count, morphSetSize)
		}
		if want := ZCCSize(count); size != want {
			return nil, lineErrorf(FaultCtrSz, "ZCC Ctr-Sz %d inconsistent with %d non-zero counters (want %d)", size, count, want)
		}
		for k, word := range present {
			for word != 0 {
				lead := bits.LeadingZeros64(word)
				word &^= 1 << uint(bitops.WordBits-1-lead)
				slot := k*bitops.WordBits + lead
				m.minors[slot] = uint16(r.ReadBits(size))
				if m.minors[slot] == 0 {
					return nil, lineErrorf(FaultZeroValue, "ZCC bit-vector marks slot %d non-zero but value is 0", slot)
				}
			}
		}
		m.nonzero = count
	case rebasing:
		m.format = FormatMCR
		m.major = r.ReadBits(mcrMajorBits)
		m.base[0] = uint32(r.ReadBits(mcrBaseBits))
		m.base[1] = uint32(r.ReadBits(mcrBaseBits))
		m.nonzero = readDense(&r, &m.minors)
	default:
		m.format = FormatUniform
		if sz := r.ReadBits(ctrSzBits); sz != denseMinorBits {
			return nil, lineErrorf(FaultCtrSz, "uniform Ctr-Sz %d, want %d", sz, denseMinorBits)
		}
		m.major = r.ReadBits(zccMajorBits)
		m.nonzero = readDense(&r, &m.minors)
	}
	// The unused tail must be zero — the encoder is canonical, and a
	// non-canonical line is corruption (tolerating it would let padding
	// bits escape MAC coverage). The MAC sits in the final 64 bits.
	if !readZeros(&r, LineBits-macBits-r.Pos()) {
		return nil, lineErrorf(FaultPadding, "non-canonical morph line (non-zero padding)")
	}
	m.mac = r.ReadBits(macBits)
	return m, nil
}
