package proof

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"

	"github.com/securemem/morphtree/internal/container"
)

// Wire codecs for proofs and transparency-log responses. All integers are
// big-endian, matching the rest of the wire protocol. Decoders validate
// every count against a hard cap, and against the bytes left, before
// allocating and check remaining length before every read, so truncated or
// hostile frames fail with a typed error instead of a panic or an
// allocation larger than the input. A proof carries sealed lines and their
// MACs, so its body opens with a container header (internal/container): a
// proof from before the line MAC moved is a *container.VersionError, never a
// MAC mismatch.

const (
	// proofMagic and proofVersion head a proof's wire form. Version 1 was
	// the header-less body under the HMAC line MAC; 2 is the same body
	// behind this header, under GHASH-then-AES.
	proofMagic   = "MPRF"
	proofVersion = 2

	// MaxChainLines caps a proof's path length. An arity-2 tree over a
	// 64-bit space has at most 64 levels; anything deeper is hostile.
	MaxChainLines = 64
	// MaxShards caps the shard-root vector length in one proof.
	MaxShards = 4096
	// MaxSigBytes caps a signature field (Ed25519 signatures are 64 bytes;
	// the slack keeps the format stable if the scheme grows).
	MaxSigBytes = 512
	// MaxRangeEntries caps one RootRange response's entry count; longer
	// ranges page.
	MaxRangeEntries = 1 << 16
	// MaxProofDigests caps a consistency proof's node count (2*64 bounds
	// any proof over a 2^64-entry log).
	MaxProofDigests = 128
)

// TruncatedError reports a proof-layer payload that ended before a field it
// promised, distinguishing framing damage from verification failure.
type TruncatedError struct {
	// What names the field being read when the payload ran out.
	What string
}

// Error implements error.
func (e *TruncatedError) Error() string {
	return fmt.Sprintf("proof: truncated payload reading %s", e.What)
}

// BoundsError reports a length or count field exceeding its hard cap — a
// hostile or corrupt frame rejected before allocation.
type BoundsError struct {
	// What names the offending field; Got and Max its value and cap.
	What string
	Got  uint64
	Max  uint64
}

// Error implements error.
func (e *BoundsError) Error() string {
	return fmt.Sprintf("proof: %s %d exceeds limit %d", e.What, e.Got, e.Max)
}

// cursor walks a decode buffer with bounds checks.
type cursor struct {
	buf []byte
}

func (c *cursor) take(n int, what string) ([]byte, error) {
	if len(c.buf) < n {
		return nil, &TruncatedError{What: what}
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b, nil
}

func (c *cursor) u8(what string) (byte, error) {
	b, err := c.take(1, what)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (c *cursor) u16(what string) (uint16, error) {
	b, err := c.take(2, what)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (c *cursor) u32(what string) (uint32, error) {
	b, err := c.take(4, what)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (c *cursor) u64(what string) (uint64, error) {
	b, err := c.take(8, what)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (c *cursor) digest(what string) (Digest, error) {
	var d Digest
	b, err := c.take(len(d), what)
	if err != nil {
		return d, err
	}
	copy(d[:], b)
	return d, nil
}

// bytes reads a u16 length capped at max, then that many bytes (copied).
func (c *cursor) bytes(max uint64, what string) ([]byte, error) {
	n, err := c.u16(what + " length")
	if err != nil {
		return nil, err
	}
	if uint64(n) > max {
		return nil, &BoundsError{What: what + " length", Got: uint64(n), Max: max}
	}
	b, err := c.take(int(n), what)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// TrailingError reports bytes left over after a complete payload.
type TrailingError struct {
	// What names the payload; N is the number of bytes after it.
	What string
	N    int
}

// Error implements error.
func (e *TrailingError) Error() string {
	return fmt.Sprintf("proof: %d trailing bytes after %s", e.N, e.What)
}

func (c *cursor) done(what string) error {
	if len(c.buf) != 0 {
		return &TrailingError{What: what, N: len(c.buf)}
	}
	return nil
}

// need fails unless n records of size bytes each are left to read: a count
// is checked against the input before anything is allocated for it.
func (c *cursor) need(n, size int, what string) error {
	if len(c.buf) < n*size {
		return &TruncatedError{What: what}
	}
	return nil
}

func appendBytes16(dst []byte, b []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(b)))
	return append(dst, b...)
}

// Encode appends the proof's wire form to dst.
func (p *Proof) Encode(dst []byte) ([]byte, error) {
	if len(p.Chain) > MaxChainLines {
		return nil, &BoundsError{What: "chain length", Got: uint64(len(p.Chain)), Max: MaxChainLines}
	}
	if len(p.ShardRoots) > MaxShards {
		return nil, &BoundsError{What: "shard-root count", Got: uint64(len(p.ShardRoots)), Max: MaxShards}
	}
	if len(p.Attestation) > MaxSigBytes {
		return nil, &BoundsError{What: "attestation length", Got: uint64(len(p.Attestation)), Max: MaxSigBytes}
	}
	if p.Line != nil && len(p.Line) != LineBytes {
		return nil, fmt.Errorf("proof: encode: data line is %d bytes, want %d", len(p.Line), LineBytes)
	}
	if len(p.Root) != LineBytes {
		return nil, fmt.Errorf("proof: encode: root line is %d bytes, want %d", len(p.Root), LineBytes)
	}
	dst = container.AppendHeader(dst, proofMagic, proofVersion)
	dst = binary.BigEndian.AppendUint64(dst, p.Addr)
	dst = binary.BigEndian.AppendUint32(dst, p.Shards)
	dst = binary.BigEndian.AppendUint32(dst, p.Shard)
	dst = binary.BigEndian.AppendUint64(dst, p.Epoch)
	if p.Line == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = append(dst, p.Line...)
		dst = binary.BigEndian.AppendUint64(dst, p.LineMAC)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Chain)))
	for l, line := range p.Chain {
		if line == nil {
			dst = append(dst, 0)
			continue
		}
		if len(line) != LineBytes {
			return nil, fmt.Errorf("proof: encode: chain level %d line is %d bytes, want %d", l, len(line), LineBytes)
		}
		dst = append(dst, 1)
		dst = append(dst, line...)
	}
	dst = append(dst, p.Root...)
	for i := range p.ShardRoots {
		dst = append(dst, p.ShardRoots[i][:]...)
	}
	dst = appendBytes16(dst, p.Attestation)
	return dst, nil
}

// DecodeProof parses a proof from its wire form. Every slice in the result
// is freshly allocated — the input buffer may be reused by the caller. Input
// that opens with another header, or none (a proof from before the header),
// is a *container.VersionError.
func DecodeProof(buf []byte) (*Proof, error) {
	c := &cursor{buf: buf}
	head, err := c.take(container.HeaderBytes, "header")
	if err != nil {
		return nil, err
	}
	if err := container.CheckHeader(head, proofMagic, proofVersion); err != nil {
		return nil, err
	}
	p := &Proof{}
	if p.Addr, err = c.u64("addr"); err != nil {
		return nil, err
	}
	if p.Shards, err = c.u32("shard count"); err != nil {
		return nil, err
	}
	if p.Shards == 0 || p.Shards > MaxShards {
		return nil, &BoundsError{What: "shard count", Got: uint64(p.Shards), Max: MaxShards}
	}
	if p.Shard, err = c.u32("shard index"); err != nil {
		return nil, err
	}
	if p.Epoch, err = c.u64("epoch"); err != nil {
		return nil, err
	}
	hasLine, err := c.u8("line flag")
	if err != nil {
		return nil, err
	}
	if hasLine != 0 {
		b, err := c.take(LineBytes, "data line")
		if err != nil {
			return nil, err
		}
		p.Line = append([]byte(nil), b...)
		if p.LineMAC, err = c.u64("data MAC"); err != nil {
			return nil, err
		}
	}
	chainLen, err := c.u16("chain length")
	if err != nil {
		return nil, err
	}
	if chainLen > MaxChainLines {
		return nil, &BoundsError{What: "chain length", Got: uint64(chainLen), Max: MaxChainLines}
	}
	if err := c.need(int(chainLen), 1, "chain line flag"); err != nil {
		return nil, err
	}
	p.Chain = make([][]byte, chainLen)
	for l := range p.Chain {
		present, err := c.u8("chain line flag")
		if err != nil {
			return nil, err
		}
		if present == 0 {
			continue
		}
		b, err := c.take(LineBytes, "chain line")
		if err != nil {
			return nil, err
		}
		p.Chain[l] = append([]byte(nil), b...)
	}
	root, err := c.take(LineBytes, "root line")
	if err != nil {
		return nil, err
	}
	p.Root = append([]byte(nil), root...)
	if err := c.need(int(p.Shards), len(Digest{}), "shard root digest"); err != nil {
		return nil, err
	}
	p.ShardRoots = make([]Digest, p.Shards)
	for i := range p.ShardRoots {
		if p.ShardRoots[i], err = c.digest("shard root digest"); err != nil {
			return nil, err
		}
	}
	if p.Attestation, err = c.bytes(MaxSigBytes, "attestation"); err != nil {
		return nil, err
	}
	if err := c.done("proof"); err != nil {
		return nil, err
	}
	return p, nil
}

// RootInfo is the OpRoot response: the authority's public key, its latest
// signed head, and the newest entry (absent for an empty log).
type RootInfo struct {
	Pub    ed25519.PublicKey
	Head   SignedHead
	Latest *Entry
}

// appendEntry appends an entry's wire form.
func appendEntry(dst []byte, e Entry) ([]byte, error) {
	if len(e.Sig) > MaxSigBytes {
		return nil, &BoundsError{What: "entry signature length", Got: uint64(len(e.Sig)), Max: MaxSigBytes}
	}
	dst = binary.BigEndian.AppendUint64(dst, e.Epoch)
	dst = append(dst, e.Root[:]...)
	dst = append(dst, e.Prev[:]...)
	return appendBytes16(dst, e.Sig), nil
}

func (c *cursor) entry() (Entry, error) {
	var e Entry
	var err error
	if e.Epoch, err = c.u64("entry epoch"); err != nil {
		return e, err
	}
	if e.Root, err = c.digest("entry root"); err != nil {
		return e, err
	}
	if e.Prev, err = c.digest("entry prev hash"); err != nil {
		return e, err
	}
	if e.Sig, err = c.bytes(MaxSigBytes, "entry signature"); err != nil {
		return e, err
	}
	return e, nil
}

// appendHead appends a signed head's wire form.
func appendHead(dst []byte, h SignedHead) ([]byte, error) {
	if len(h.Sig) > MaxSigBytes {
		return nil, &BoundsError{What: "head signature length", Got: uint64(len(h.Sig)), Max: MaxSigBytes}
	}
	dst = binary.BigEndian.AppendUint64(dst, h.Size)
	dst = append(dst, h.Hash[:]...)
	return appendBytes16(dst, h.Sig), nil
}

func (c *cursor) signedHead() (SignedHead, error) {
	var h SignedHead
	var err error
	if h.Size, err = c.u64("head size"); err != nil {
		return h, err
	}
	if h.Hash, err = c.digest("head hash"); err != nil {
		return h, err
	}
	if h.Sig, err = c.bytes(MaxSigBytes, "head signature"); err != nil {
		return h, err
	}
	return h, nil
}

// Encode appends the RootInfo's wire form to dst.
func (r *RootInfo) Encode(dst []byte) ([]byte, error) {
	if len(r.Pub) > MaxSigBytes {
		return nil, &BoundsError{What: "public key length", Got: uint64(len(r.Pub)), Max: MaxSigBytes}
	}
	dst = appendBytes16(dst, r.Pub)
	var err error
	if dst, err = appendHead(dst, r.Head); err != nil {
		return nil, err
	}
	if r.Latest == nil {
		return append(dst, 0), nil
	}
	dst = append(dst, 1)
	return appendEntry(dst, *r.Latest)
}

// DecodeRootInfo parses an OpRoot response; all slices are freshly
// allocated.
func DecodeRootInfo(buf []byte) (*RootInfo, error) {
	c := &cursor{buf: buf}
	r := &RootInfo{}
	pub, err := c.bytes(MaxSigBytes, "public key")
	if err != nil {
		return nil, err
	}
	r.Pub = ed25519.PublicKey(pub)
	if r.Head, err = c.signedHead(); err != nil {
		return nil, err
	}
	hasLatest, err := c.u8("latest-entry flag")
	if err != nil {
		return nil, err
	}
	if hasLatest != 0 {
		e, err := c.entry()
		if err != nil {
			return nil, err
		}
		r.Latest = &e
	}
	if err := c.done("root info"); err != nil {
		return nil, err
	}
	return r, nil
}

// RangeResult is the OpRootRange response: log entries with 0-based
// indices [From, To) plus the consistency proof between the size-From and
// size-To logs (empty when the relation is trivially checkable).
type RangeResult struct {
	From    uint64
	To      uint64
	Entries []Entry
	Proof   []Digest
}

// Encode appends the RangeResult's wire form to dst.
func (r *RangeResult) Encode(dst []byte) ([]byte, error) {
	if uint64(len(r.Entries)) > MaxRangeEntries {
		return nil, &BoundsError{What: "range entry count", Got: uint64(len(r.Entries)), Max: MaxRangeEntries}
	}
	if len(r.Proof) > MaxProofDigests {
		return nil, &BoundsError{What: "consistency proof length", Got: uint64(len(r.Proof)), Max: MaxProofDigests}
	}
	dst = binary.BigEndian.AppendUint64(dst, r.From)
	dst = binary.BigEndian.AppendUint64(dst, r.To)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Entries)))
	var err error
	for _, e := range r.Entries {
		if dst, err = appendEntry(dst, e); err != nil {
			return nil, err
		}
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Proof)))
	for i := range r.Proof {
		dst = append(dst, r.Proof[i][:]...)
	}
	return dst, nil
}

// DecodeRangeResult parses an OpRootRange response; all slices are freshly
// allocated.
func DecodeRangeResult(buf []byte) (*RangeResult, error) {
	c := &cursor{buf: buf}
	r := &RangeResult{}
	var err error
	if r.From, err = c.u64("range from"); err != nil {
		return nil, err
	}
	if r.To, err = c.u64("range to"); err != nil {
		return nil, err
	}
	n, err := c.u32("range entry count")
	if err != nil {
		return nil, err
	}
	if uint64(n) > MaxRangeEntries {
		return nil, &BoundsError{What: "range entry count", Got: uint64(n), Max: MaxRangeEntries}
	}
	if err := c.need(int(n), 8+2*len(Digest{})+2, "range entry"); err != nil {
		return nil, err
	}
	r.Entries = make([]Entry, 0, n)
	for i := uint32(0); i < n; i++ {
		e, err := c.entry()
		if err != nil {
			return nil, err
		}
		r.Entries = append(r.Entries, e)
	}
	pn, err := c.u16("consistency proof length")
	if err != nil {
		return nil, err
	}
	if uint64(pn) > MaxProofDigests {
		return nil, &BoundsError{What: "consistency proof length", Got: uint64(pn), Max: MaxProofDigests}
	}
	if err := c.need(int(pn), len(Digest{}), "consistency proof node"); err != nil {
		return nil, err
	}
	r.Proof = make([]Digest, 0, pn)
	for i := uint16(0); i < pn; i++ {
		d, err := c.digest("consistency proof node")
		if err != nil {
			return nil, err
		}
		r.Proof = append(r.Proof, d)
	}
	if err := c.done("root range"); err != nil {
		return nil, err
	}
	return r, nil
}
