// Package bitops provides the bit-granular reader and writer used to pack
// counter cachelines into their exact 512-bit hardware layouts.
//
// Bits are numbered MSB-first within the 64-byte line, matching the layout
// diagrams in the paper (Figures 8 and 13): field order in the figure is the
// order fields are written, and the first field occupies the most significant
// bits of byte 0. An MSB-first line is eight big-endian 64-bit words, so both
// types work a word at a time: fields are shifted into (or out of) a word
// accumulator and the buffer is touched once per word, never once per bit.
package bitops

import (
	"encoding/binary"

	"github.com/securemem/morphtree/internal/invariant"
)

// WordBits is the machine word width the codecs pack by: the widest single
// field, and the unit in which the buffer is read and written.
const WordBits = 64

// WordBytes is WordBits in bytes; buffers are a whole number of words.
const WordBytes = WordBits / 8

// Writer packs fields MSB-first into a caller-supplied buffer. Fields
// collect in a word accumulator and reach the buffer one whole word at a
// time, overwriting what was there, so the buffer need not be zeroed — but a
// trailing partial word is never written: callers fill whole words (a counter
// line is exactly eight). The zero Writer is unusable; use NewWriter.
type Writer struct {
	buf  []byte
	off  int    // bytes committed to buf
	acc  uint64 // pending bits, right-aligned
	fill int    // pending bit count, in [0, WordBits)
}

// NewWriter returns a Writer over buf, whose length must be a multiple of
// WordBytes. It is a value so a codec can keep it on its stack.
func NewWriter(buf []byte) Writer {
	if invariant.Enabled {
		invariant.Assertf(len(buf)%WordBytes == 0, "bitops: %d-byte buffer is not whole words", len(buf))
	}
	return Writer{buf: buf}
}

// WriteBits appends the low width bits of v. Width must be in [0, WordBits]
// and v must fit in width bits; violations are programming errors in a
// fixed-layout codec, not runtime conditions, checked under the morphdebug
// build tag. A write past the end of the buffer fails the slice bounds check
// in any build, when the word it completes is committed.
func (w *Writer) WriteBits(v uint64, width int) {
	if invariant.Enabled {
		invariant.Assertf(width >= 0 && width <= WordBits, "bitops: invalid width %d", width)
		invariant.Assertf(width >= WordBits || v < 1<<uint(width), "bitops: value %d does not fit in %d bits", v, width)
		invariant.Assertf(w.Pos()+width <= len(w.buf)*8, "bitops: write of %d bits at %d overflows %d-byte buffer", width, w.Pos(), len(w.buf))
	}
	if width < WordBits-w.fill {
		w.acc = w.acc<<uint(width) | v
		w.fill += width
		return
	}
	w.spill(v, width)
}

// spill completes the pending word with the top bits of v, commits it, and
// starts the next word with whatever of v is left.
func (w *Writer) spill(v uint64, width int) {
	room := WordBits - w.fill
	rest := width - room
	binary.BigEndian.PutUint64(w.buf[w.off:], w.acc<<uint(room)|v>>uint(rest))
	w.off += WordBytes
	w.acc = v & (1<<uint(rest) - 1)
	w.fill = rest
}

// Pos reports the number of bits written so far.
func (w *Writer) Pos() int { return w.off*8 + w.fill }

// Reader unpacks fields from a bit buffer, MSB-first, loading one word at a
// time.
type Reader struct {
	buf  []byte
	off  int    // bytes loaded from buf
	acc  uint64 // unread bits of the last loaded word, left-aligned, zeros below
	left int    // unread bit count in acc, in [0, WordBits)
}

// NewReader returns a Reader over buf, whose length must be a multiple of
// WordBytes.
func NewReader(buf []byte) Reader {
	if invariant.Enabled {
		invariant.Assertf(len(buf)%WordBytes == 0, "bitops: %d-byte buffer is not whole words", len(buf))
	}
	return Reader{buf: buf}
}

// ReadBits extracts the next width bits as an unsigned integer. Width is
// morphdebug-asserted like WriteBits; a read past the end of the buffer
// fails the slice bounds check in any build.
func (r *Reader) ReadBits(width int) uint64 {
	if invariant.Enabled {
		invariant.Assertf(width >= 0 && width <= WordBits, "bitops: invalid width %d", width)
		invariant.Assertf(r.Pos()+width <= len(r.buf)*8, "bitops: read of %d bits at %d overflows %d-byte buffer", width, r.Pos(), len(r.buf))
	}
	v := r.acc >> uint(WordBits-width)
	if width > r.left {
		return r.refill(v, width-r.left)
	}
	r.acc <<= uint(width)
	r.left -= width
	return v
}

// refill finishes a field whose leading bits, already in place in v, were
// the last of the current word: it loads the next word and takes the
// remaining need bits from its top.
func (r *Reader) refill(v uint64, need int) uint64 {
	next := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += WordBytes
	r.acc = next << uint(need)
	r.left = WordBits - need
	return v | next>>uint(r.left)
}

// Pos reports the number of bits read so far.
func (r *Reader) Pos() int { return r.off*8 - r.left }
