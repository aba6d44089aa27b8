// Package aesctr implements counter-mode cacheline encryption (Figure 2):
// a one-time pad is generated by passing {line address, counter} through
// AES with a secret key, and the 64-byte line is XORed with the pad. The
// counter increments on every write so pads never repeat; pad generation
// can proceed in parallel with the data fetch, hiding its latency.
//
// Block i of a line's pad is AES_K(LE64(addr) ‖ LE64(counter<<4 | i)), for
// i = 0 to 3. On amd64 with AES-NI one assembly call builds the four
// blocks, encrypts them interleaved and XORs the line (kernel_amd64.s), in
// time that depends on no key or data byte: AESENC is one instruction per
// round and AESKEYGENASSIST expands the key, so no table is indexed by a
// secret. Elsewhere the same bytes come from crypto/aes a block at a time,
// the portable path the tests hold the kernel to, which makes each pad in
// the Cipher's own 64 bytes under a mutex that only it takes. Neither path
// hands a caller's line to an interface call, so a line on the caller's
// stack stays there.
package aesctr

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"sync"
)

// LineBytes is the cacheline granularity of encryption.
const LineBytes = 64

// maxRoundKeyBytes holds AES-256's fifteen round keys.
const maxRoundKeyBytes = 15 * aes.BlockSize

// Cipher encrypts and decrypts 64-byte lines under counter mode. It is safe
// for concurrent use.
type Cipher struct {
	// block is the portable path's AES.
	block cipher.Block
	// enc is the kernel's round keys, nr+1 of them.
	//
	//morph:secret
	enc [maxRoundKeyBytes]byte
	// nr is the number of AES rounds: 10, 12 or 14.
	nr int

	// mu guards pad, where the portable path makes a line's pad.
	mu  sync.Mutex
	pad [LineBytes]byte
}

// New returns a Cipher keyed with an AES-128/192/256 key.
func New(key []byte) (*Cipher, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("aesctr: %w", err)
	}
	c := &Cipher{block: block, nr: len(key)/4 + 6}
	if useKernel {
		expandKey(c.nr, &key[0], &c.enc)
	}
	return c, nil
}

// XOR applies the pad for {addr, counter} to src, writing into dst; it both
// encrypts and decrypts. dst and src must be 64 bytes and may alias. Apart
// from its error, it allocates nothing.
func (c *Cipher) XOR(dst, src []byte, addr, counter uint64) error {
	if len(dst) != LineBytes || len(src) != LineBytes {
		return fmt.Errorf("aesctr: line must be %d bytes (dst %d, src %d)", LineBytes, len(dst), len(src))
	}
	if useKernel {
		xorLine(c.nr, &c.enc, (*[LineBytes]byte)(dst), (*[LineBytes]byte)(src), addr, counter)
		return nil
	}
	c.portable(dst, src, addr, counter)
	return nil
}

// portable is XOR through crypto/aes, a block at a time, with the pad made
// in the Cipher's own bytes.
func (c *Cipher) portable(dst, src []byte, addr, counter uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < LineBytes/aes.BlockSize; i++ {
		blk := c.pad[i*aes.BlockSize : (i+1)*aes.BlockSize]
		binary.LittleEndian.PutUint64(blk[0:], addr)
		binary.LittleEndian.PutUint64(blk[8:], counter<<4|uint64(i))
		c.block.Encrypt(blk, blk)
	}
	subtle.XORBytes(dst, src, c.pad[:])
}
