package mac

// useKernel says the CPU has AES-NI, PCLMULQDQ, SSSE3 and SSE4.1, what
// crypto/cipher's own amd64 GCM asks for; CPUID is read once, at start-up.
// Tests clear it to run the portable path.
var useKernel = cpuidECX()&(1<<25|1<<19|1<<9|1<<1) == 1<<25|1<<19|1<<9|1<<1

// cpuidECX returns ECX of CPUID leaf 1: bit 25 is AES-NI, 19 SSE4.1, 9
// SSSE3 and 1 PCLMULQDQ.
func cpuidECX() uint32

// expandKey128 writes the eleven round keys of an AES-128 key into enc. It
// runs AESKEYGENASSIST, which indexes no table.
//
//go:noescape
func expandKey128(key *[subKeyBytes]byte, enc *[roundKeyBytes]byte)

// initPowers writes H^8 down to H^1 into tab, in the form lineMAC
// multiplies by.
//
//go:noescape
func initPowers(tab *[powerTableBytes]byte, h *[blockBytes]byte)

// lineMAC is AES_K2(GHASH_H(blocks) ⊕ E_K1(J0)) read as a little-endian
// word, where blocks are head's two, body's len(body)/blockBytes and tail's
// ntail, mask is E_K1(J0) and fin K2's round keys.
//
//go:noescape
func lineMAC(tab *[powerTableBytes]byte, mask *[blockBytes]byte, fin *[roundKeyBytes]byte, head *[2 * blockBytes]byte, body []byte, tail *[2 * blockBytes]byte, ntail int) uint64
