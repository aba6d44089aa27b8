// Package mac computes the truncated keyed message authentication codes
// used by the secure-memory engine. The paper's designs use Carter-Wegman
// (SGX) or AES-GCM (Yan et al.) hardware MACs truncated to 54-64 bits; we
// substitute HMAC-SHA256 with the same interface and truncation, which
// preserves the forgery-resistance property the system depends on
// (DESIGN.md, substitutions).
//
// The construction is textbook HMAC; only its evaluation is specialised. The
// key never changes after New, so neither do the two 64-byte key blocks HMAC
// hashes in front of the message and of the inner digest: New hashes each
// once and keeps the SHA-256 state that results, in the form crypto/sha256
// documents for saving and resuming a hash. A MAC resumes the inner hash from
// the first state, hashes the message, resumes the outer hash from the second
// and hashes the inner digest — three compressions for a cacheline's 88-byte
// message where hashing the key blocks each time takes five. It is what
// crypto/hmac does itself when one of its objects is Reset and reused.
//
// The saved states are immutable, and they are all a Keyer is. The two hash
// objects a MAC resumes them into, and the buffer it builds the message in,
// are mutable and live in one sync.Pool for the package: a MAC takes a set,
// uses it and puts it back, so a Keyer stays safe for concurrent use with no
// lock — which proof.Walker in a thin client and a tenant's Domain need, and
// shared reads in the engine would — a short-lived Keyer (one per proof
// verified, one per replication batch) brings no scratch of its own into
// being, and a caller's buffer is only ever copied from, so it stays on the
// caller's stack. Output is bit-for-bit what crypto/hmac produces (the tests
// hold it to that).
package mac

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"

	"github.com/securemem/morphtree/internal/invariant"
)

// Width is a MAC truncation width in bits.
type Width int

// Truncation widths referenced in the paper.
const (
	// Width54 is Synergy's in-line organization: a 54-bit MAC shares the
	// ECC chip with a 10-bit SEC code (Section II-A3).
	Width54 Width = 54
	// Width56 is SGX's MAC width.
	Width56 Width = 56
	// Width64 fills the full MAC field of a counter cacheline.
	Width64 Width = 64
)

const (
	// headerBytes is the {domain, address, counter} prefix of every line
	// MAC's message: three little-endian 64-bit words.
	headerBytes = 3 * 8
	// lineBytes is the content length the engine MACs, a data or counter
	// cacheline.
	lineBytes = 64
	// msgBytes is what a pooled message buffer starts with: room for a line
	// MAC's message (headerBytes + lineBytes) or a WAL record's body, one
	// byte longer. A longer message grows it once.
	msgBytes = 2 * lineBytes
)

// KeySizeError reports a key New cannot use: empty, or longer than the
// SHA-256 block. HMAC would replace an over-long key by its hash; no caller
// has such a key (the engine's are AES keys), so it is refused rather than
// given a second way through the code.
type KeySizeError struct {
	// Len is the rejected key length in bytes.
	Len int
}

// Error implements error.
func (e *KeySizeError) Error() string {
	return fmt.Sprintf("mac: key is %d bytes, want 1 to %d", e.Len, sha256.BlockSize)
}

// resumable is what crypto/sha256 documents its hash to be besides a
// hash.Hash: its state can be saved and a hash resumed from it.
type resumable interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// Keyer computes truncated MACs under a fixed secret key. It is immutable
// after New and safe for concurrent use.
type Keyer struct {
	// inner and outer are the saved SHA-256 states after HMAC's two key
	// blocks: the key zero-padded to the block size and XORed with 0x36 and
	// 0x5c. Either forges MACs as well as the key does.
	//
	//morph:secret
	inner, outer []byte
	width        Width
	mask         uint64
}

// scratch is the mutable state of one MAC evaluation, any Keyer's.
type scratch struct {
	// inner and outer hold the last Keyer's saved states until the next
	// MAC resumes its own, so they are as secret as those.
	//
	//morph:secret
	inner, outer resumable
	// msg is the message being MACed, copied here so that the caller's
	// buffer is not handed to an interface method, which would move it to
	// the heap.
	msg []byte
	sum [sha256.Size]byte
}

// New returns a Keyer for the given secret key and truncation width. The key
// must be 1 to 64 bytes, else New returns a *KeySizeError.
func New(key []byte, width Width) (*Keyer, error) {
	if len(key) == 0 || len(key) > sha256.BlockSize {
		return nil, &KeySizeError{Len: len(key)}
	}
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("mac: width %d out of range [1,64]", width)
	}
	k := &Keyer{width: width, mask: ^uint64(0) >> (64 - uint(width))}
	var err error
	if k.inner, err = keyBlockState(key, 0x36); err != nil {
		return nil, err
	}
	if k.outer, err = keyBlockState(key, 0x5c); err != nil {
		return nil, err
	}
	return k, nil
}

// scratches pools *scratch; see the package comment.
var scratches = sync.Pool{New: func() any {
	return &scratch{
		inner: sha256.New().(resumable),
		outer: sha256.New().(resumable),
		msg:   make([]byte, 0, msgBytes),
	}
}}

// keyBlockState returns SHA-256's saved state after one HMAC key block.
func keyBlockState(key []byte, pad byte) ([]byte, error) {
	var block [sha256.BlockSize]byte
	copy(block[:], key)
	for i := range block {
		block[i] ^= pad
	}
	h := sha256.New().(resumable)
	h.Write(block[:]) //morph:sealed -- into a hash, whose state the Keyer keeps
	state, err := h.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("mac: save SHA-256 state: %w", err)
	}
	return state, nil
}

// Width returns the truncation width in bits.
func (k *Keyer) Width() Width { return k.width }

// Line MACs bind {content, counter, address, domain}: the counter defeats
// replay of stale tuples once the counter itself is protected by the tree,
// the address defeats splicing lines across locations, and the domain
// separates data MACs from each tree level's MACs.

// Data computes the MAC protecting a data cacheline.
func (k *Keyer) Data(ciphertext []byte, counter uint64, addr uint64) uint64 {
	return k.compute(0xFFFF, addr, counter, ciphertext)
}

// Counter computes the MAC protecting a counter cacheline at a tree level
// (0 = encryption counters), authenticated by its parent counter's value.
func (k *Keyer) Counter(encoded []byte, parentCounter uint64, level int, index uint64) uint64 {
	return k.compute(uint64(level), index, parentCounter, encoded)
}

// Raw computes the MAC of msg alone, with no header in front of it: the WAL
// seals each record with this one, at Width64.
func (k *Keyer) Raw(msg []byte) uint64 { return k.hmac(nil, msg) }

// compute is HMAC-SHA256(key, domain || addr || counter || content),
// truncated.
func (k *Keyer) compute(domain, addr, counter uint64, content []byte) uint64 {
	var header [headerBytes]byte
	binary.LittleEndian.PutUint64(header[0:], domain)
	binary.LittleEndian.PutUint64(header[8:], addr)
	binary.LittleEndian.PutUint64(header[16:], counter)
	return k.hmac(header[:], content)
}

// hmac is HMAC-SHA256 over header || content from the saved states, truncated:
// SHA-256(opad || SHA-256(ipad || message)) with both key blocks already
// hashed.
func (k *Keyer) hmac(header, content []byte) uint64 {
	pooled := scratches.Get()
	s := pooled.(*scratch)
	s.msg = append(append(s.msg[:0], header...), content...)
	if err := s.inner.UnmarshalBinary(k.inner); err != nil {
		panic(invariant.Violationf("mac: SHA-256 refused the inner state it saved: %v", err))
	}
	s.inner.Write(s.msg)
	digest := s.inner.Sum(s.sum[:0])
	if err := s.outer.UnmarshalBinary(k.outer); err != nil {
		panic(invariant.Violationf("mac: SHA-256 refused the outer state it saved: %v", err))
	}
	s.outer.Write(digest)
	sum := binary.LittleEndian.Uint64(s.outer.Sum(s.sum[:0])) & k.mask
	scratches.Put(pooled) // only now: the sum was read out of the scratch
	return sum
}
