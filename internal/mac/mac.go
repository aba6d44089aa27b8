// Package mac computes the truncated keyed message authentication codes
// used by the secure-memory engine. The paper's designs use Carter-Wegman
// (SGX) or AES-GCM (Yan et al.) hardware MACs truncated to 54-64 bits; we
// substitute HMAC-SHA256 with the same interface and truncation, which
// preserves the forgery-resistance property the system depends on
// (DESIGN.md, substitutions).
//
// The construction is textbook HMAC; only its evaluation is specialised. The
// key never changes after New, so the two padded key blocks HMAC hashes in
// front of the message and of the inner digest are built once, and each MAC
// is two one-shot SHA-256 calls over stack buffers: no hash objects, no
// allocation, no shared mutable state. Output is bit-for-bit what
// crypto/hmac produces (the tests hold it to that).
package mac

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
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
	// headerBytes is the {domain, address, counter} prefix of every MAC'd
	// message: three little-endian 64-bit words.
	headerBytes = 3 * 8
	// lineBytes is the content length the engine MACs, a data or counter
	// cacheline. Other lengths are legal, just not allocation-free.
	lineBytes = 64
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

// Keyer computes truncated MACs under a fixed secret key. It is immutable
// after New and safe for concurrent use.
type Keyer struct {
	// ipad and opad are HMAC's key blocks: the key zero-padded to the
	// SHA-256 block size and XORed with 0x36 and 0x5c.
	//
	//morph:secret
	ipad, opad [sha256.BlockSize]byte
	width      Width
	mask       uint64
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
	copy(k.ipad[:], key)
	copy(k.opad[:], key)
	for i := range k.ipad {
		k.ipad[i] ^= 0x36
		k.opad[i] ^= 0x5c
	}
	return k, nil
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

// compute is HMAC-SHA256(key, domain || addr || counter || content),
// truncated: SHA-256(opad || SHA-256(ipad || message)).
//
//morph:hotpath
func (k *Keyer) compute(domain, addr, counter uint64, content []byte) uint64 {
	// The buffer holds a whole cacheline's message, so it stays on the
	// stack; longer content makes append move it to the heap and changes
	// nothing else.
	var buf [sha256.BlockSize + headerBytes + lineBytes]byte
	msg := append(buf[:0], k.ipad[:]...)
	msg = binary.LittleEndian.AppendUint64(msg, domain)
	msg = binary.LittleEndian.AppendUint64(msg, addr)
	msg = binary.LittleEndian.AppendUint64(msg, counter)
	msg = append(msg, content...)
	inner := sha256.Sum256(msg)

	var outer [sha256.BlockSize + sha256.Size]byte
	copy(outer[:], k.opad[:])
	copy(outer[sha256.BlockSize:], inner[:])
	sum := sha256.Sum256(outer[:])
	return binary.LittleEndian.Uint64(sum[:8]) & k.mask
}
