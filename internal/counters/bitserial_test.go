package counters

// The bit-serial codec: the packer and the three line codecs exactly as they
// stood before the word-wise rewrite, one loop iteration per bit. It is kept
// here, out of the build, as the oracle the differential and fuzz tests hold
// the word-wise codec to — bytes out, state in, and which inputs are which
// *LineError fault.

// serialWriter packs values into a zeroed buffer, MSB-first, a bit at a time.
// Like the packer it preserves, it keeps only the low width bits of v.
type serialWriter struct {
	buf []byte
	pos int
}

func newSerialWriter() *serialWriter { return &serialWriter{buf: make([]byte, LineBytes)} }

func (w *serialWriter) writeBits(v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		if (v>>uint(i))&1 != 0 {
			w.buf[w.pos/8] |= 1 << uint(7-w.pos%8)
		}
		w.pos++
	}
}

func (w *serialWriter) padZeros(n int) { w.pos += n }

// serialReader unpacks values MSB-first, a bit at a time.
type serialReader struct {
	buf []byte
	pos int
}

func (r *serialReader) readBits(width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v <<= 1
		if r.buf[r.pos/8]&(1<<uint(7-r.pos%8)) != 0 {
			v |= 1
		}
		r.pos++
	}
	return v
}

func refEncodeSplit(s *Split) []byte {
	w := newSerialWriter()
	w.writeBits(s.major, 64)
	for _, v := range s.minors {
		w.writeBits(v, s.minorBits)
	}
	w.writeBits(s.mac, 64)
	return w.buf
}

func refDecodeSplit(buf []byte, arity int) (*Split, error) {
	if len(buf) != LineBytes {
		return nil, &LineError{Fault: FaultLength}
	}
	minorBits, ok := splitMinorBits[arity]
	if !ok {
		return nil, &ArityError{Arity: arity}
	}
	r := &serialReader{buf: buf}
	s := NewSplit(arity, minorBits)
	s.major = r.readBits(64)
	for i := range s.minors {
		s.minors[i] = r.readBits(minorBits)
		if s.minors[i] != 0 {
			s.nonzero++
		}
	}
	s.mac = r.readBits(64)
	return s, nil
}

func refEncodeMorph(m *Morph) []byte {
	w := newSerialWriter()
	switch m.format {
	case FormatZCC:
		size := ZCCSize(m.nonzero)
		w.writeBits(0, 1)
		w.writeBits(uint64(size), 6)
		w.writeBits(m.major, 57)
		for _, v := range m.minors {
			if v != 0 {
				w.writeBits(1, 1)
			} else {
				w.writeBits(0, 1)
			}
		}
		packed := 0
		for _, v := range m.minors {
			if v != 0 {
				w.writeBits(uint64(v), size)
				packed += size
			}
		}
		w.padZeros(256 - packed)
	case FormatUniform:
		w.writeBits(1, 1)
		w.writeBits(3, 6)
		w.writeBits(m.major, 57)
		for _, v := range m.minors {
			w.writeBits(uint64(v), 3)
		}
	case FormatMCR:
		w.writeBits(1, 1)
		w.writeBits(m.major, 49)
		w.writeBits(uint64(m.base[0]), 7)
		w.writeBits(uint64(m.base[1]), 7)
		for _, v := range m.minors {
			w.writeBits(uint64(v), 3)
		}
	}
	w.writeBits(m.mac, 64)
	return w.buf
}

func refDecodeMorph(buf []byte, rebasing bool) (*Morph, error) {
	if len(buf) != LineBytes {
		return nil, &LineError{Fault: FaultLength}
	}
	r := &serialReader{buf: buf}
	m := NewMorph(rebasing)
	dense := r.readBits(1) == 1
	switch {
	case !dense:
		m.format = FormatZCC
		size := int(r.readBits(6))
		m.major = r.readBits(57)
		var present [MorphArity]bool
		count := 0
		for i := range present {
			present[i] = r.readBits(1) == 1
			if present[i] {
				count++
			}
		}
		if count > morphSetSize {
			return nil, &LineError{Fault: FaultPopulation}
		}
		if size != ZCCSize(count) {
			return nil, &LineError{Fault: FaultCtrSz}
		}
		for i, p := range present {
			if !p {
				continue
			}
			m.minors[i] = uint16(r.readBits(size))
			if m.minors[i] == 0 {
				return nil, &LineError{Fault: FaultZeroValue}
			}
			m.nonzero++
		}
	case rebasing:
		m.format = FormatMCR
		m.major = r.readBits(49)
		m.base[0] = uint32(r.readBits(7))
		m.base[1] = uint32(r.readBits(7))
		for i := range m.minors {
			m.minors[i] = uint16(r.readBits(3))
			if m.minors[i] != 0 {
				m.nonzero++
			}
		}
	default:
		m.format = FormatUniform
		if r.readBits(6) != 3 {
			return nil, &LineError{Fault: FaultCtrSz}
		}
		m.major = r.readBits(57)
		for i := range m.minors {
			m.minors[i] = uint16(r.readBits(3))
			if m.minors[i] != 0 {
				m.nonzero++
			}
		}
	}
	for r.pos < LineBits-64 {
		if r.readBits(1) != 0 {
			return nil, &LineError{Fault: FaultPadding}
		}
	}
	m.mac = r.readBits(64)
	return m, nil
}

func refEncodeDelta(d *Delta) []byte {
	w := newSerialWriter()
	w.writeBits(d.base, 64)
	for _, v := range d.deltas {
		w.writeBits(uint64(v), 5)
	}
	w.padZeros(64)
	w.writeBits(d.mac, 64)
	return w.buf
}

func refDecodeDelta(buf []byte) (*Delta, error) {
	if len(buf) != LineBytes {
		return nil, &LineError{Fault: FaultLength}
	}
	r := &serialReader{buf: buf}
	d := NewDelta()
	d.base = r.readBits(64)
	for i := range d.deltas {
		d.deltas[i] = uint32(r.readBits(5))
		if d.deltas[i] != 0 {
			d.nonzero++
		}
	}
	if r.readBits(64) != 0 {
		return nil, &LineError{Fault: FaultPadding}
	}
	d.mac = r.readBits(64)
	return d, nil
}
