package aesctr

// useKernel says the CPU has AES-NI and SSE4.1, which xorLine needs; CPUID
// is read once, at start-up. Tests clear it to run the portable path.
var useKernel = cpuidECX()&(1<<25|1<<19) == 1<<25|1<<19

// cpuidECX returns ECX of CPUID leaf 1: bit 25 is AES-NI, bit 19 SSE4.1.
func cpuidECX() uint32

// expandKey writes the nr+1 round keys of the AES key at key, which is
// 4·(nr-6) bytes long, into enc. It runs AESKEYGENASSIST, which indexes no
// table.
//
//go:noescape
func expandKey(nr int, key *byte, enc *[maxRoundKeyBytes]byte)

// xorLine XORs src with the pad for {addr, counter} into dst: the four
// counter blocks encrypted interleaved under enc's nr rounds. dst and src
// may be the same line.
//
//go:noescape
func xorLine(nr int, enc *[maxRoundKeyBytes]byte, dst, src *[LineBytes]byte, addr, counter uint64)
