package bitops

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/securemem/morphtree/internal/invariant"
)

// serialWrite is the bit-at-a-time packer the word-wise Writer replaced,
// kept as the oracle: it ORs the low width bits of v into buf at bit pos,
// MSB-first, and returns the next position.
func serialWrite(buf []byte, pos int, v uint64, width int) int {
	for i := width - 1; i >= 0; i-- {
		if (v>>uint(i))&1 != 0 {
			buf[pos/8] |= 1 << uint(7-pos%8)
		}
		pos++
	}
	return pos
}

// serialRead is serialWrite's inverse.
func serialRead(buf []byte, pos, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v <<= 1
		if buf[(pos+i)/8]&(1<<uint(7-(pos+i)%8)) != 0 {
			v |= 1
		}
	}
	return v
}

func TestWriteReadRoundTrip(t *testing.T) {
	buf := make([]byte, 16)
	w := NewWriter(buf)
	w.WriteBits(0x1FFFFFFFFFFFFFF, 57) // 57-bit all-ones
	w.WriteBits(0x2A, 7)
	w.WriteBits(0, 12)
	w.WriteBits(0xDEADBEEF, 32)
	if w.Pos() != 57+7+12+32 {
		t.Fatalf("pos = %d", w.Pos())
	}
	w.WriteBits(0, 20) // complete the second word so it is committed
	r := NewReader(buf)
	if got := r.ReadBits(57); got != 0x1FFFFFFFFFFFFFF {
		t.Errorf("57-bit field = %#x", got)
	}
	if got := r.ReadBits(7); got != 0x2A {
		t.Errorf("7-bit field = %#x", got)
	}
	if got := r.ReadBits(12); got != 0 {
		t.Errorf("12-bit field = %#x", got)
	}
	if got := r.ReadBits(32); got != 0xDEADBEEF {
		t.Errorf("32-bit field = %#x", got)
	}
	if r.Pos() != 57+7+12+32 {
		t.Fatalf("read pos = %d", r.Pos())
	}
}

func TestMSBFirstLayout(t *testing.T) {
	// A single 1-bit must set the MSB of byte 0.
	buf := make([]byte, WordBytes)
	w := NewWriter(buf)
	w.WriteBits(1, 1)
	w.WriteBits(0, 63)
	if buf[0] != 0x80 {
		t.Fatalf("byte 0 = %#x, want 0x80", buf[0])
	}
	// A 4-bit value 0xF after 4 zero bits lands in the low nibble of byte 0.
	w = NewWriter(buf)
	w.WriteBits(0, 4)
	w.WriteBits(0xF, 4)
	w.WriteBits(0, 56)
	if buf[0] != 0x0F {
		t.Fatalf("byte 0 = %#x, want 0x0F", buf[0])
	}
}

func TestCrossWordBoundary(t *testing.T) {
	buf := make([]byte, 16)
	w := NewWriter(buf)
	w.WriteBits(0x3, 3)               // 011
	w.WriteBits(0x1FF, 9)             // crosses byte 0 -> byte 1
	w.WriteBits(0, 50)                // two bits short of the word
	w.WriteBits(0xAB, 8)              // straddles word 0 -> word 1
	w.WriteBits(0x3FFFFFFFFFFFFF, 58) // fills word 1 exactly
	if w.Pos() != 128 {
		t.Fatalf("pos = %d", w.Pos())
	}
	r := NewReader(buf)
	for _, f := range []struct {
		want  uint64
		width int
	}{{0x3, 3}, {0x1FF, 9}, {0, 50}, {0xAB, 8}, {0x3FFFFFFFFFFFFF, 58}} {
		if got := r.ReadBits(f.width); got != f.want {
			t.Errorf("%d-bit field = %#x, want %#x", f.width, got, f.want)
		}
	}
}

func TestWriterOverwritesStaleBytes(t *testing.T) {
	// The Writer commits whole words, so a reused buffer needs no zeroing.
	buf := bytes.Repeat([]byte{0xFF}, WordBytes)
	w := NewWriter(buf)
	w.WriteBits(0, 32)
	w.WriteBits(1, 32)
	if want := []byte{0, 0, 0, 0, 0, 0, 0, 1}; !bytes.Equal(buf, want) {
		t.Fatalf("buf = %x, want %x", buf, want)
	}
}

func TestWidthZero(t *testing.T) {
	buf := make([]byte, WordBytes)
	w := NewWriter(buf)
	w.WriteBits(0, 0)
	if w.Pos() != 0 {
		t.Fatalf("zero-width write moved position")
	}
	r := NewReader(buf)
	if got := r.ReadBits(0); got != 0 {
		t.Fatalf("zero-width read = %d", got)
	}
	if r.Pos() != 0 {
		t.Fatalf("zero-width read moved position")
	}
}

func TestWriteOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on buffer overflow")
		}
	}()
	w := NewWriter(make([]byte, WordBytes))
	w.WriteBits(0, 64)
	// The second word has nowhere to go: its commit trips the runtime
	// bounds check even without morphdebug assertions.
	w.WriteBits(1, 64)
}

func TestValueTooWidePanics(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("oversized-value check is a morphdebug assertion; run with -tags morphdebug")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on oversized value")
		}
	}()
	w := NewWriter(make([]byte, WordBytes))
	w.WriteBits(256, 8)
}

func TestReadOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on read overflow")
		}
	}()
	r := NewReader(make([]byte, WordBytes))
	r.ReadBits(64)
	r.ReadBits(1)
}

// randomFields draws a field sequence that fills exactly words 64-bit words.
func randomFields(rng *rand.Rand, words int) (vals []uint64, widths []int) {
	for total := 0; total < words*WordBits; {
		width := rng.Intn(WordBits + 1)
		if rng.Intn(4) == 0 {
			width = rng.Intn(8) // dense runs of narrow fields, as in a counter line
		}
		if total+width > words*WordBits {
			width = words*WordBits - total
		}
		v := rng.Uint64()
		if width < WordBits {
			v &= 1<<uint(width) - 1
		}
		vals, widths = append(vals, v), append(widths, width)
		total += width
	}
	return vals, widths
}

// Property: the word-wise Writer produces exactly the bytes the bit-serial
// packer does, and the word-wise Reader recovers exactly the fields the
// bit-serial reader does, for any field sequence.
func TestQuickMatchesBitSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		words := 1 + rng.Intn(8)
		vals, widths := randomFields(rng, words)
		want := make([]byte, words*WordBytes)
		got := bytes.Repeat([]byte{0xA5}, words*WordBytes)
		w := NewWriter(got)
		pos := 0
		for i, v := range vals {
			w.WriteBits(v, widths[i])
			pos = serialWrite(want, pos, v, widths[i])
			if w.Pos() != pos {
				return false
			}
		}
		if !bytes.Equal(got, want) {
			return false
		}
		// Read arbitrary bytes back under the same widths.
		rng.Read(got)
		r := NewReader(got)
		pos = 0
		for _, width := range widths {
			if r.ReadBits(width) != serialRead(got, pos, width) {
				return false
			}
			pos += width
			if r.Pos() != pos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
