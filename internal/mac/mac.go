// Package mac computes the truncated keyed message authentication codes
// used by the secure-memory engine. The paper's designs MAC each line with
// Carter-Wegman (SGX) or AES-GCM (Yan et al.) hardware truncated to 54-64
// bits; Data and Counter are a Carter-Wegman MAC of that family, with no
// nonce (DESIGN.md §4):
//
//	tag = AES_K2(GHASH_H(domain || addr || counter || line) XOR E_K1(J0))
//
// truncated to the Keyer's width, where H = E_K1(0^128) and J0 is GCM's
// first counter block under the all-zero nonce. GHASH is a universal hash
// and AES under an independent key is a PRF over its output, so the tag is
// a PRF of the message and forging one takes about 2^-w a try plus
// q^2·(l+1)/2^128 for q MACs of l blocks. Nothing in it depends on a nonce
// or a counter being fresh: like HMAC, the MAC is a deterministic function
// of its message, and a repeated {address, counter} says no more than the
// repeated tag does. K1 and K2 are derived from the Keyer's key under two
// labels, so neither reveals the other or the key.
//
// On amd64 with AES-NI and PCLMULQDQ one evaluation is one assembly call
// (kernel_amd64.s): GHASH over the message and its length block in one
// PCLMULQDQ pass, the products of up to eight blocks summed before a single
// reduction, then the XOR with E_K1(J0), computed in New, and AES under K2
// in AES-NI. Both instructions run in time that depends on no key or data
// byte, K2's round keys are expanded with AESKEYGENASSIST, and the kernel
// branches only on the message's length, so nothing secret indexes a table
// or steers a branch. Elsewhere, and in the tests that hold the kernel to
// it, the portable path computes the same bytes with crypto/cipher: one Seal
// of an empty plaintext under K1's AES-GCM, with the message as its
// additional data, then one AES block under K2. New builds that GCM on
// every architecture, and the GCM refuses to be built when Go runs FIPS
// 140-only (GODEBUG=fips140=only), because its nonce is not random; New
// returns that error.
//
// Record, the WAL's record seal, is the same construction under a domain word
// of its own, over the record's body (DESIGN.md §10), and Frame, the tag
// of a state-stream frame, under another, over the frame's payload with its
// ordinal and the tag before it in the address and counter words (DESIGN.md
// §17). Derive is the one key
// derivation of the repository: HMAC-SHA256(key, label), which every role
// key and sub-key is made with.
//
// A Keyer is safe for concurrent use — which proof.Walker in a thin client
// needs, and shared reads in the engine would. The kernel reads only what
// New wrote and works in registers and in two blocks on its caller's stack,
// so it takes no lock and allocates nothing, ever, and a caller's buffer
// stays on the caller's stack. The portable path assembles the message in
// the Keyer's own buffer and makes the tag in its own block, under a mutex
// only that path takes: a caller's buffer is only ever copied from, and the
// buffer grows once, to the longest message the Keyer sees.
package mac

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
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
	// headerBytes is the {domain, address, counter} prefix of every MAC's
	// message: three little-endian 64-bit words.
	headerBytes = 3 * 8
	// lineBytes is the content length the engine MACs, a data or counter
	// cacheline.
	lineBytes = 64
	// subKeyBytes is the length of K1 and K2: AES-128 keys.
	subKeyBytes = 16
	// blockBytes is the AES and GHASH block.
	blockBytes = aes.BlockSize
	// roundKeyBytes holds AES-128's eleven round keys.
	roundKeyBytes = 11 * blockBytes
	// powerTableBytes holds H^8 down to H^1, each with its Karatsuba
	// half-sum.
	powerTableBytes = 8 * 2 * blockBytes
	// dataDomain is the domain word of a data line's MAC; a counter line's
	// is its tree level, a small number.
	dataDomain = 0xFFFF
	// recordDomain is the domain word of a WAL record's MAC, which no line
	// MAC uses.
	recordDomain = 0xFFFE
	// frameDomain is the domain word of a state-stream frame's tag, which
	// no line or record MAC uses.
	frameDomain = 0xFFFD
)

// zeroNonce is the one GCM nonce the line MAC uses; see the package comment
// for why a fixed one is safe here.
var zeroNonce [12]byte

// KeySizeError reports a key New cannot use: empty, or longer than the
// SHA-256 block. HMAC, which derives K1 and K2, would replace an over-long
// key by its hash; no caller has such a key (the engine's are AES keys), so
// it is refused rather than given a second way through the code.
type KeySizeError struct {
	// Len is the rejected key length in bytes.
	Len int
}

// Error implements error.
func (e *KeySizeError) Error() string {
	return fmt.Sprintf("mac: key is %d bytes, want 1 to %d", e.Len, sha256.BlockSize)
}

// Keyer computes truncated MACs under a fixed secret key. It is safe for
// concurrent use.
type Keyer struct {
	// ghash is AES-GCM under K1: its Seal of an empty plaintext is
	// GHASH_H(message) XOR E_K1(J0). The portable path's.
	//
	//morph:secret
	ghash cipher.AEAD
	// fin is AES under K2, the PRF that finishes a MAC. The portable
	// path's.
	//
	//morph:secret
	fin cipher.Block
	// powers is H^8 down to H^1, as the kernel multiplies by them.
	//
	//morph:secret
	powers [powerTableBytes]byte
	// j0 is E_K1(J0), GCM's tag mask under the zero nonce.
	//
	//morph:secret
	j0 [blockBytes]byte
	// finKeys is K2's round keys, the kernel's AES.
	//
	//morph:secret
	finKeys [roundKeyBytes]byte
	width   Width
	mask    uint64

	// mu guards the portable path's scratch, msg and sum.
	mu sync.Mutex
	// msg is the message being MACed, copied here so that the caller's
	// buffer is not handed to an interface method, which would move it to
	// the heap.
	msg []byte
	// sum is where a tag is made.
	sum [blockBytes]byte
}

// New returns a Keyer for the given secret key and truncation width. The key
// must be 1 to 64 bytes, else New returns a *KeySizeError. It returns
// crypto/cipher's error if the GCM cannot be built (FIPS 140-only mode).
func New(key []byte, width Width) (*Keyer, error) {
	if len(key) == 0 || len(key) > sha256.BlockSize {
		return nil, &KeySizeError{Len: len(key)}
	}
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("mac: width %d out of range [1,64]", width)
	}
	k := &Keyer{width: width, mask: ^uint64(0) >> (64 - uint(width))}
	hashBlock, err := aes.NewCipher(Derive(key, "morphtree/mac/ghash")[:subKeyBytes])
	if err != nil {
		return nil, fmt.Errorf("mac: %w", err)
	}
	if k.ghash, err = cipher.NewGCM(hashBlock); err != nil {
		return nil, fmt.Errorf("mac: %w", err)
	}
	k2 := Derive(key, "morphtree/mac/fin")[:subKeyBytes]
	if k.fin, err = aes.NewCipher(k2); err != nil {
		return nil, fmt.Errorf("mac: %w", err)
	}
	if useKernel {
		// j0 holds H = E_K1(0^128) until the powers are made from it.
		hashBlock.Encrypt(k.j0[:], k.j0[:])
		initPowers(&k.powers, &k.j0)
		k.j0 = [blockBytes]byte{blockBytes - 1: 1}
		hashBlock.Encrypt(k.j0[:], k.j0[:])
		expandKey128((*[subKeyBytes]byte)(k2), &k.finKeys)
	}
	return k, nil
}

// Derive returns HMAC-SHA256(key, label): the key of the role label names,
// made from key and revealing neither key nor any other label's. Callers
// truncate it to the length their cipher takes.
//
//morph:secret
func Derive(key []byte, label string) []byte {
	h := hmac.New(sha256.New, key)
	h.Write([]byte(label)) //morph:sealed -- into a hash whose output is a key
	return h.Sum(nil)
}

// Width returns the truncation width in bits.
func (k *Keyer) Width() Width { return k.width }

// Line MACs bind {content, counter, address, domain}: the counter defeats
// replay of stale tuples once the counter itself is protected by the tree,
// the address defeats splicing lines across locations, and the domain
// separates data MACs from each tree level's MACs, from WAL records' and from
// state-stream frames'.

// Data computes the MAC protecting a data cacheline.
func (k *Keyer) Data(ciphertext []byte, counter uint64, addr uint64) uint64 {
	return k.compute(dataDomain, addr, counter, ciphertext)
}

// Counter computes the MAC protecting a counter cacheline at a tree level
// (0 = encryption counters), authenticated by its parent counter's value.
func (k *Keyer) Counter(encoded []byte, parentCounter uint64, level int, index uint64) uint64 {
	return k.compute(uint64(level), index, parentCounter, encoded)
}

// Record computes the MAC sealing a WAL record: the line MAC's construction
// over body — which carries the record's LSN and address itself — under the
// record domain, with zero address and counter words.
func (k *Keyer) Record(body []byte) uint64 {
	return k.compute(recordDomain, 0, 0, body)
}

// Frame computes the tag of a state stream's frame: the line MAC's
// construction over payload under the frame domain, with the frame's
// ordinal in the address word and the tag of the frame before it in the
// counter word, so that each tag binds every frame before it.
func (k *Keyer) Frame(ordinal, prev uint64, payload []byte) uint64 {
	return k.compute(frameDomain, ordinal, prev, payload)
}

// compute is the MAC over domain || addr || counter || content, the three
// words little-endian: GHASH and the GCM mask under K1, AES under K2,
// truncated to the first width bits of the block read little-endian.
func (k *Keyer) compute(domain, addr, counter uint64, content []byte) uint64 {
	if !useKernel {
		return k.portable(domain, addr, counter, content)
	}
	// The message's blocks as lineMAC takes them: the header and up to
	// eight bytes of content in head, the rest of the content's whole
	// blocks where they lie, and its last partial block, if any, and the
	// length block in tail.
	var head, tail [2 * blockBytes]byte
	binary.LittleEndian.PutUint64(head[0:], domain)
	binary.LittleEndian.PutUint64(head[8:], addr)
	binary.LittleEndian.PutUint64(head[16:], counter)
	body := content[copy(head[headerBytes:], content):]
	whole := len(body) &^ (blockBytes - 1)
	ntail := 1
	if copy(tail[:], body[whole:]) > 0 {
		ntail = 2
	}
	binary.BigEndian.PutUint64(tail[(ntail-1)*blockBytes:], uint64(headerBytes+len(content))*8)
	return lineMAC(&k.powers, &k.j0, &k.finKeys, &head, body[:whole], &tail, ntail) & k.mask
}

// portable is compute through crypto/cipher: a GCM Seal and an AES block,
// in the Keyer's scratch.
func (k *Keyer) portable(domain, addr, counter uint64, content []byte) uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.msg = binary.LittleEndian.AppendUint64(k.msg[:0], domain)
	k.msg = binary.LittleEndian.AppendUint64(k.msg, addr)
	k.msg = binary.LittleEndian.AppendUint64(k.msg, counter)
	k.msg = append(k.msg, content...)
	tag := k.ghash.Seal(k.sum[:0], zeroNonce[:], nil, k.msg)
	k.fin.Encrypt(tag, tag)
	return binary.LittleEndian.Uint64(tag) & k.mask
}
