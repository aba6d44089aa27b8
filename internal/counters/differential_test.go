package counters

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// Differential tests: the word-wise codec against the bit-serial one in
// bitserial_test.go. Both directions, every organization, and the error
// cases — a decoder is a trust boundary, so "rejects the same inputs for the
// same reason" is part of the format.

// sameFault reports whether two decode results agree: both succeed, or both
// fail with the same typed error (the same *LineError fault, or both an
// *ArityError).
func sameFault(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	var gl, wl *LineError
	if errors.As(want, &wl) {
		return errors.As(got, &gl) && gl.Fault == wl.Fault
	}
	var ga, wa *ArityError
	return errors.As(want, &wa) && errors.As(got, &ga) && ga.Arity == wa.Arity
}

func deltaEqual(a, b *Delta) bool { return *a == *b }

// checkMorph holds one Morph state to the reference in both directions.
func checkMorph(t *testing.T, m *Morph) {
	t.Helper()
	want := refEncodeMorph(m)
	got := bytes.Repeat([]byte{0x5A}, LineBytes)
	m.EncodeTo(got)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s encode\n got %x\nwant %x\nstate %+v", m.format, got, want, m)
	}
	dec, err := DecodeMorph(want, m.rebasing)
	ref, refErr := refDecodeMorph(want, m.rebasing)
	if err != nil || refErr != nil {
		t.Fatalf("decode of own encoding: word-wise %v, reference %v", err, refErr)
	}
	if !morphEqual(dec, ref) || !morphEqual(dec, m) {
		t.Fatalf("%s decode\n got %+v\n ref %+v\nwant %+v", m.format, dec, ref, m)
	}
}

// checkMorphBytes decodes arbitrary bytes both ways and returns the block if
// they decode.
func checkMorphBytes(t *testing.T, line []byte, rebasing bool) *Morph {
	t.Helper()
	dec, err := DecodeMorph(line, rebasing)
	ref, refErr := refDecodeMorph(line, rebasing)
	if !sameFault(err, refErr) {
		t.Fatalf("decode %x (rebasing %v): word-wise %v, reference %v", line, rebasing, err, refErr)
	}
	if err != nil {
		return nil
	}
	if !morphEqual(dec, ref) {
		t.Fatalf("decode %x\n got %+v\n ref %+v", line, dec, ref)
	}
	// Both decoders accept only canonical lines.
	if got := dec.Encode(); !bytes.Equal(got, line) {
		t.Fatalf("re-encode\n got %x\nwant %x", got, line)
	}
	return dec
}

func checkSplit(t *testing.T, s *Split) {
	t.Helper()
	want := refEncodeSplit(s)
	got := bytes.Repeat([]byte{0x5A}, LineBytes)
	s.EncodeTo(got)
	if !bytes.Equal(got, want) {
		t.Fatalf("SC-%d encode\n got %x\nwant %x", s.arity, got, want)
	}
	dec, err := DecodeSplit(want, s.arity)
	ref, refErr := refDecodeSplit(want, s.arity)
	if err != nil || refErr != nil {
		t.Fatalf("SC-%d decode of own encoding: word-wise %v, reference %v", s.arity, err, refErr)
	}
	if !splitEqual(dec, ref) || !splitEqual(dec, s) {
		t.Fatalf("SC-%d decode mismatch", s.arity)
	}
}

func checkDelta(t *testing.T, d *Delta) {
	t.Helper()
	want := refEncodeDelta(d)
	got := bytes.Repeat([]byte{0x5A}, LineBytes)
	d.EncodeTo(got)
	if !bytes.Equal(got, want) {
		t.Fatalf("delta encode\n got %x\nwant %x", got, want)
	}
	dec, err := DecodeDelta(want)
	ref, refErr := refDecodeDelta(want)
	if err != nil || refErr != nil {
		t.Fatalf("delta decode of own encoding: word-wise %v, reference %v", err, refErr)
	}
	if !deltaEqual(dec, ref) || !deltaEqual(dec, d) {
		t.Fatalf("delta decode\n got %+v\n ref %+v\nwant %+v", dec, ref, d)
	}
}

var splitArities = []int{8, 16, 32, 64, 128}

// TestCodecMatchesReferenceUnderWrites walks every organization through a
// long random write sequence — every format, every ZCC width, rebases and
// resets — checking the codec against the reference along the way.
func TestCodecMatchesReferenceUnderWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, rebasing := range []bool{true, false} {
		m := NewMorph(rebasing)
		checkMorph(t, m)
		for w := 0; w < 20000; w++ {
			// Widen the touched range slowly so the line dwells in
			// each ZCC width before going dense.
			m.Increment(rng.Intn(1 + w/150%MorphArity))
			m.SetMAC(rng.Uint64())
			if w%7 == 0 {
				checkMorph(t, m)
			}
		}
	}
	for _, arity := range splitArities {
		s := SplitSpec(arity).New().(*Split)
		for w := 0; w < 5000; w++ {
			s.Increment(rng.Intn(arity))
			s.SetMAC(rng.Uint64())
			if w%11 == 0 {
				checkSplit(t, s)
			}
		}
	}
	d := NewDelta()
	for w := 0; w < 20000; w++ {
		d.Increment(rng.Intn(1 + w/300%DeltaArity))
		d.SetMAC(rng.Uint64())
		if w%7 == 0 {
			checkDelta(t, d)
		}
	}
}

// TestCodecMatchesReferenceAtFieldExtremes packs the widest value every
// field can hold, which no write sequence reaches.
func TestCodecMatchesReferenceAtFieldExtremes(t *testing.T) {
	ones := ^uint64(0)
	zcc := &Morph{rebasing: true, format: FormatZCC, major: 1<<zccMajorBits - 1, mac: ones}
	for _, nz := range []int{0, 1, 16, 17, 32, 33, 36, 37, 42, 43, 51, 52, 64} {
		zcc.minors = [MorphArity]uint16{}
		zcc.nonzero = nz
		for i := 0; i < nz; i++ {
			zcc.minors[MorphArity-1-2*i] = zccMax(ZCCSize(nz))
		}
		checkMorph(t, zcc)
	}
	dense := &Morph{rebasing: true, format: FormatMCR, major: 1<<mcrMajorBits - 1,
		base: [2]uint32{mcrBaseMax, mcrBaseMax}, nonzero: MorphArity, mac: ones}
	for i := range dense.minors {
		dense.minors[i] = uniformMax
	}
	checkMorph(t, dense)
	dense.rebasing, dense.format, dense.major, dense.base = false, FormatUniform, 1<<zccMajorBits-1, [2]uint32{}
	checkMorph(t, dense)
	for _, arity := range splitArities {
		s := NewSplit(arity, splitMinorBits[arity])
		s.major, s.mac, s.nonzero = ones, ones, arity
		for i := range s.minors {
			s.minors[i] = s.maxMinor()
		}
		checkSplit(t, s)
	}
	d := &Delta{base: ones, nonzero: DeltaArity, mac: ones}
	for i := range d.deltas {
		d.deltas[i] = deltaMax
	}
	checkDelta(t, d)
}

// TestDecodeFaultsMatchReference drives every rejection the decoders have,
// including the two in TestMorphDecodeRejectsCorruption, and requires the
// same typed fault from both codecs.
func TestDecodeFaultsMatchReference(t *testing.T) {
	m := NewMorph(true)
	for i := 0; i < 20; i++ {
		m.Increment(i)
	}
	zcc := m.Encode()
	flip := func(line []byte, bit int) []byte {
		out := bytes.Clone(line)
		out[bit/8] ^= 1 << uint(7-bit%8)
		return out
	}
	full := NewMorph(false)
	for i := 0; i < MorphArity; i++ {
		full.Increment(i)
	}
	overfull := bytes.Clone(zcc)
	for i := 8; i < 24; i++ { // bit-vector all ones: 128 > 64 counters
		overfull[i] = 0xFF
	}
	cases := []struct {
		name     string
		line     []byte
		rebasing bool
		want     LineFault
	}{
		{"short", zcc[:32], true, FaultLength},
		{"empty", nil, true, FaultLength},
		{"ctr-sz flipped", flip(zcc, 1), true, FaultCtrSz},
		{"population", overfull, true, FaultPopulation},
		// Slot 0's 8-bit value is 1 (bits 192..199): clearing its last bit
		// leaves a marked slot holding 0.
		{"zero value", flip(zcc, 64+MorphArity+7), true, FaultZeroValue},
		// Twenty 8-bit counters leave 96 bits of the non-zero field unused;
		// its last bit sits just before the MAC.
		{"padding", flip(zcc, LineBits-macBits-1), true, FaultPadding},
		{"uniform ctr-sz", flip(full.Encode(), 6), false, FaultCtrSz},
	}
	for _, c := range cases {
		_, err := DecodeMorph(c.line, c.rebasing)
		_, refErr := refDecodeMorph(c.line, c.rebasing)
		var le *LineError
		if !errors.As(err, &le) || le.Fault != c.want {
			t.Errorf("%s: word-wise decoder returned %v, want fault %d", c.name, err, c.want)
		}
		if !sameFault(err, refErr) {
			t.Errorf("%s: word-wise %v, reference %v", c.name, err, refErr)
		}
	}

	d := NewDelta()
	d.Increment(3)
	padded := flip(d.Encode(), fullMajorBits+DeltaArity*deltaBits+5)
	for _, line := range [][]byte{padded, padded[:10]} {
		_, err := DecodeDelta(line)
		_, refErr := refDecodeDelta(line)
		if err == nil || !sameFault(err, refErr) {
			t.Errorf("delta %d bytes: word-wise %v, reference %v", len(line), err, refErr)
		}
	}
	for _, arity := range []int{7, 0, -1, 256} {
		_, err := DecodeSplit(zcc, arity)
		_, refErr := refDecodeSplit(zcc, arity)
		if err == nil || !sameFault(err, refErr) {
			t.Errorf("split arity %d: word-wise %v, reference %v", arity, err, refErr)
		}
	}
}

// FuzzMorphEncodeMatchesReference: any 64 bytes decode the same way under
// both codecs (same state or same fault), and any state reachable from there
// — or from a fresh line — by the fuzzer's writes encodes to the same bytes.
func FuzzMorphEncodeMatchesReference(f *testing.F) {
	for _, g := range readGoldenLines(f) {
		if g.Org == "morph" || g.Org == "morph-zcc" {
			f.Add(g.bytes(f), g.Org == "morph", []byte{0, 1, 2, 200, 7, 7, 7, 7, 7, 7, 7, 7})
		}
	}
	f.Add(make([]byte, LineBytes), true, []byte{})
	f.Add([]byte{1, 2, 3}, false, bytes.Repeat([]byte{9}, 300))
	f.Fuzz(func(t *testing.T, line []byte, rebasing bool, writes []byte) {
		m := checkMorphBytes(t, line, rebasing)
		if m == nil {
			m = NewMorph(rebasing)
		}
		for i, slot := range writes {
			m.Increment(int(slot) % MorphArity)
			m.SetMAC(uint64(i) * 0x9e3779b97f4a7c15)
			checkMorph(t, m)
		}
	})
}

// FuzzSplitEncodeMatchesReference is the same contract for split-counter
// lines of every arity, valid or not.
func FuzzSplitEncodeMatchesReference(f *testing.F) {
	for _, g := range readGoldenLines(f) {
		var arity int
		if n, _ := fmt.Sscanf(g.Org, "split-%d", &arity); n == 1 {
			f.Add(g.bytes(f), arity, []byte{0, 0, 0, 5, 250})
		}
	}
	f.Add(make([]byte, LineBytes), 7, []byte{1})
	f.Fuzz(func(t *testing.T, line []byte, arity int, writes []byte) {
		dec, err := DecodeSplit(line, arity)
		ref, refErr := refDecodeSplit(line, arity)
		if !sameFault(err, refErr) {
			t.Fatalf("decode %x arity %d: word-wise %v, reference %v", line, arity, err, refErr)
		}
		if err != nil {
			return
		}
		if !splitEqual(dec, ref) {
			t.Fatalf("decode %x arity %d: state differs from reference", line, arity)
		}
		for i, slot := range writes {
			dec.Increment(int(slot) % arity)
			dec.SetMAC(uint64(i) * 0x9e3779b97f4a7c15)
			checkSplit(t, dec)
		}
	})
}
