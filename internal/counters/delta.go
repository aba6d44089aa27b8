package counters

import (
	"github.com/securemem/morphtree/internal/bitops"
	"github.com/securemem/morphtree/internal/invariant"
)

// Delta is the delta-encoded counter organization of the paper's concurrent
// work (Yitbarek & Austin, DAC 2018 — reference [19]): counters in a line
// are stored as a shared full-width base plus small per-line deltas,
// exploiting the low dynamic range of nearby lines' write counts. When a
// delta saturates, the line is re-based (base moves forward by the minimum
// delta) if every delta is non-zero, else reset with re-encryption — the
// single-base analogue of MorphCtr's MCR, but without ZCC's sparse-usage
// compression, and limited to 64 counters per line.
//
// Layout: Base(64) | 64 x 5-bit Deltas(320) | unused(64) | MAC(64) = 512.
type Delta struct {
	base    uint64
	deltas  [DeltaArity]uint32
	nonzero int
	mac     uint64
}

// DeltaArity is the number of counters in a delta-encoded cacheline.
const DeltaArity = 64

// deltaBits is the per-counter delta width.
const deltaBits = 5

// deltaMax is the largest delta value.
const deltaMax = 1<<deltaBits - 1

// deltaPadBits is the unused field between the deltas and the MAC.
const deltaPadBits = LineBits - fullMajorBits - DeltaArity*deltaBits - macBits

// NewDelta returns a zeroed delta-encoded counter line.
func NewDelta() *Delta { return &Delta{} }

// DeltaSpec returns the delta-encoding organization (64 counters/line).
func DeltaSpec() Spec {
	return Spec{
		Name:   "Delta-64",
		Arity:  DeltaArity,
		New:    func() Block { return NewDelta() },
		Decode: func(buf []byte) (Block, error) { return DecodeDelta(buf) },
	}
}

// Arity implements Block.
func (d *Delta) Arity() int { return DeltaArity }

// NonZero implements Block.
func (d *Delta) NonZero() int { return d.nonzero }

// MAC implements Block.
func (d *Delta) MAC() uint64 { return d.mac }

// SetMAC implements Block.
func (d *Delta) SetMAC(m uint64) { d.mac = m }

// FormatName implements Block.
func (d *Delta) FormatName() string { return "delta" }

// Value implements Block: base + delta.
func (d *Delta) Value(i int) uint64 { return d.base + uint64(d.deltas[i]) }

// CopyFrom implements Block.
func (d *Delta) CopyFrom(src Block) { *d = *src.(*Delta) }

// Increment implements Block.
func (d *Delta) Increment(i int) Event {
	if d.deltas[i] != deltaMax {
		if d.deltas[i] == 0 {
			d.nonzero++
		}
		d.deltas[i]++
		return Event{}
	}
	minD, maxD := d.deltas[0], d.deltas[0]
	for _, v := range d.deltas[1:] {
		if v < minD {
			minD = v
		}
		if v > maxD {
			maxD = v
		}
	}
	if minD > 0 {
		// Rebase: slide the base forward; no effective value changes.
		d.base += uint64(minD)
		for j := range d.deltas {
			if d.deltas[j] == minD {
				d.nonzero--
			}
			d.deltas[j] -= minD
		}
		if d.deltas[i] == 0 {
			d.nonzero++
		}
		d.deltas[i]++
		return Event{Rebased: true}
	}
	// A zero delta blocks rebasing: reset past the largest so no
	// effective value repeats, and re-encrypt all children.
	d.base += uint64(maxD) + 1
	for j := range d.deltas {
		d.deltas[j] = 0
	}
	d.deltas[i] = 1
	d.nonzero = 1
	return Event{Overflow: true, Reencrypt: DeltaArity}
}

// Values implements Block.
func (d *Delta) Values(dst []uint64) {
	for i, v := range d.deltas {
		dst[i] = d.base + uint64(v)
	}
}

// Encode implements Block.
func (d *Delta) Encode() []byte { return encodeLine(d) }

// EncodeTo implements Block.
func (d *Delta) EncodeTo(dst []byte) {
	w := bitops.NewWriter(dst[:LineBytes])
	w.WriteBits(d.base, fullMajorBits)
	writeFields(&w, d.deltas[:], deltaBits)
	writeZeros(&w, deltaPadBits) // unused field
	w.WriteBits(d.mac, macBits)
	invariant.Assertf(w.Pos() == LineBits, "counters: delta layout packed %d bits", w.Pos())
}

// DecodeDelta unpacks a delta-encoded line.
func DecodeDelta(buf []byte) (*Delta, error) {
	if len(buf) != LineBytes {
		return nil, lineErrorf(FaultLength, "delta line is %d bytes, want %d", len(buf), LineBytes)
	}
	r := bitops.NewReader(buf)
	d := NewDelta()
	d.base = r.ReadBits(fullMajorBits)
	d.nonzero = readFields(&r, d.deltas[:], deltaBits)
	if !readZeros(&r, deltaPadBits) {
		return nil, lineErrorf(FaultPadding, "non-canonical delta line (non-zero padding)")
	}
	d.mac = r.ReadBits(macBits)
	return d, nil
}
