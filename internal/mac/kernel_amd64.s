// initPowers and the GHASH of lineMAC follow gcmAesInit and gcmAesData in
// Go's crypto/internal/fips140/aes/gcm/gcm_amd64.s, and expandKey128
// follows expandKeyAsm in crypto/internal/fips140/aes/aes_amd64.s:
// Copyright 2012 and 2015 The Go Authors. All rights reserved. Use of that
// source code is governed by a BSD-style license that can be found in Go's
// LICENSE file.

#include "textflag.h"

DATA bswapMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapMask<>+8(SB)/8, $0x0001020304050607
GLOBL bswapMask<>(SB), RODATA|NOPTR, $16

DATA gcmPoly<>+0(SB)/8, $0x0000000000000001
DATA gcmPoly<>+8(SB)/8, $0xc200000000000000
GLOBL gcmPoly<>(SB), RODATA|NOPTR, $16

// func cpuidECX() uint32
TEXT ·cpuidECX(SB), NOSPLIT, $0-4
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVL  CX, ret+0(FP)
	RET

// func expandKey128(key *[subKeyBytes]byte, enc *[roundKeyBytes]byte)
// Requires: AES, SSE2
TEXT ·expandKey128(SB), NOSPLIT, $0-16
	MOVQ            key+0(FP), AX
	MOVQ            enc+8(FP), BX
	MOVUPS          (AX), X0
	MOVUPS          X0, (BX)
	ADDQ            $0x10, BX
	PXOR            X4, X4
	AESKEYGENASSIST $0x01, X0, X1
	CALL            expand128<>(SB)
	AESKEYGENASSIST $0x02, X0, X1
	CALL            expand128<>(SB)
	AESKEYGENASSIST $0x04, X0, X1
	CALL            expand128<>(SB)
	AESKEYGENASSIST $0x08, X0, X1
	CALL            expand128<>(SB)
	AESKEYGENASSIST $0x10, X0, X1
	CALL            expand128<>(SB)
	AESKEYGENASSIST $0x20, X0, X1
	CALL            expand128<>(SB)
	AESKEYGENASSIST $0x40, X0, X1
	CALL            expand128<>(SB)
	AESKEYGENASSIST $0x80, X0, X1
	CALL            expand128<>(SB)
	AESKEYGENASSIST $0x1b, X0, X1
	CALL            expand128<>(SB)
	AESKEYGENASSIST $0x36, X0, X1
	CALL            expand128<>(SB)
	RET

// expand128 is one round of the AES-128 schedule: X0 is the previous round
// key, X1 AESKEYGENASSIST's output, X4 zero on entry; the new key goes to
// X0 and to (BX).
TEXT expand128<>(SB), NOSPLIT, $0
	PSHUFD $0xff, X1, X1
	SHUFPS $0x10, X0, X4
	PXOR   X4, X0
	SHUFPS $0x8c, X0, X4
	PXOR   X4, X0
	PXOR   X1, X0
	MOVUPS X0, (BX)
	ADDQ   $0x10, BX
	RET

// func initPowers(tab *[powerTableBytes]byte, h *[16]byte)
// Requires: PCLMULQDQ, SSE2, SSSE3
//
// tab gets H^8 at offset 0 down to H^1 at offset 224, each byte-reflected
// and doubled as gcmAesInit leaves them, followed by its Karatsuba half-sum
// (high qword XOR low qword, in both).
TEXT ·initPowers(SB), NOSPLIT, $0-16
	MOVQ  tab+0(FP), DI
	MOVQ  h+8(FP), SI
	MOVOU bswapMask<>+0(SB), X15
	MOVOU gcmPoly<>+0(SB), X14
	MOVOU (SI), X0
	PSHUFB X15, X0

	// H * 2
	PSHUFD $0xff, X0, X11
	MOVOU  X0, X12
	PSRAL  $0x1f, X11
	PAND   X14, X11
	PSRLL  $0x1f, X12
	PSLLDQ $0x04, X12
	PSLLL  $0x01, X0
	PXOR   X11, X0
	PXOR   X12, X0

	MOVOU  X0, 224(DI)
	PSHUFD $0x4e, X0, X1
	PXOR   X0, X1
	MOVOU  X1, 240(DI)
	MOVOU  X0, X2
	MOVOU  X1, X3
	MOVQ   $0x00000007, AX

initLoop:
	MOVOU     X2, X11
	MOVOU     X2, X12
	MOVOU     X3, X13
	PCLMULQDQ $0x00, X0, X11
	PCLMULQDQ $0x11, X0, X12
	PCLMULQDQ $0x00, X1, X13
	PXOR      X11, X13
	PXOR      X12, X13
	MOVOU     X13, X4
	PSLLDQ    $0x08, X4
	PSRLDQ    $0x08, X13
	PXOR      X4, X11
	PXOR      X13, X12
	MOVOU     X14, X2
	PCLMULQDQ $0x01, X11, X2
	PSHUFD    $0x4e, X11, X11
	PXOR      X2, X11
	MOVOU     X14, X2
	PCLMULQDQ $0x01, X11, X2
	PSHUFD    $0x4e, X11, X11
	PXOR      X11, X2
	PXOR      X12, X2
	MOVOU     X2, 192(DI)
	PSHUFD    $0x4e, X2, X3
	PXOR      X2, X3
	MOVOU     X3, 208(DI)
	DECQ      AX
	LEAQ      -32(DI), DI
	JNE       initLoop
	RET

// func lineMAC(tab *[powerTableBytes]byte, mask *[16]byte, fin *[roundKeyBytes]byte, head *[2 * 16]byte, body []byte, tail *[2 * 16]byte, ntail int) uint64
// Requires: AES, PCLMULQDQ, SSE2, SSSE3
//
// The message's blocks are head's two, body's len(body)/16 and tail's
// ntail, in that order. They are multiplied by descending powers of H in
// groups of up to eight, each group summed unreduced and reduced once, the
// running hash folded into a group's first block: one reduction for any
// message of eight blocks or fewer, which a line's is. The hash, XORed
// with mask, is encrypted under fin's AES-128 round keys, and its first
// eight bytes are returned.
//
// Registers: SI and CX walk the current segment, R8 counts the segments
// begun, DX the blocks not yet grouped and BX those left in the group; DI
// is the group's next power. X7 is the running hash, X8, X9 and X10 a
// group's low, high and middle Karatsuba sums.
TEXT ·lineMAC(SB), NOSPLIT, $0-80
	MOVQ  tab+0(FP), R9
	MOVQ  head+24(FP), SI
	MOVQ  $2, CX
	XORQ  R8, R8
	MOVQ  body_len+40(FP), DX
	SHRQ  $4, DX
	ADDQ  ntail+64(FP), DX
	ADDQ  $2, DX
	MOVOU bswapMask<>+0(SB), X15
	MOVOU gcmPoly<>+0(SB), X14
	PXOR  X7, X7

groupLoop:
	MOVQ    $8, BX
	CMPQ    DX, BX
	CMOVQLT DX, BX
	SUBQ    BX, DX
	MOVQ    BX, AX
	SHLQ    $5, AX
	LEAQ    256(R9), DI
	SUBQ    AX, DI
	PXOR    X8, X8
	PXOR    X9, X9
	PXOR    X10, X10

blockLoop:
	TESTQ CX, CX
	JNZ   load
	INCQ  R8
	CMPQ  R8, $1
	JNE   tailSegment
	MOVQ  body_base+32(FP), SI
	MOVQ  body_len+40(FP), CX
	SHRQ  $4, CX
	JMP   blockLoop

tailSegment:
	MOVQ tail+56(FP), SI
	MOVQ ntail+64(FP), CX

load:
	MOVOU     (SI), X0
	ADDQ      $0x10, SI
	DECQ      CX
	PSHUFB    X15, X0
	PXOR      X7, X0
	PXOR      X7, X7
	MOVOU     (DI), X1
	MOVOU     X1, X2
	PCLMULQDQ $0x00, X0, X1
	PXOR      X1, X8
	PCLMULQDQ $0x11, X0, X2
	PXOR      X2, X9
	PSHUFD    $0x4e, X0, X3
	PXOR      X0, X3
	MOVOU     16(DI), X4
	PCLMULQDQ $0x00, X3, X4
	PXOR      X4, X10
	ADDQ      $0x20, DI
	DECQ      BX
	JNZ       blockLoop

	// Reduce the group's sum into X7.
	PXOR      X8, X10
	PXOR      X9, X10
	MOVOU     X10, X11
	PSRLDQ    $0x08, X10
	PSLLDQ    $0x08, X11
	PXOR      X10, X9
	PXOR      X11, X8
	MOVOU     X14, X11
	PCLMULQDQ $0x01, X8, X11
	PSHUFD    $0x4e, X8, X8
	PXOR      X11, X8
	MOVOU     X14, X11
	PCLMULQDQ $0x01, X8, X11
	PSHUFD    $0x4e, X8, X8
	PXOR      X11, X8
	PXOR      X9, X8
	MOVOU     X8, X7
	TESTQ     DX, DX
	JNZ       groupLoop

	// AES_K2(GHASH ⊕ E_K1(J0)).
	MOVQ       mask+8(FP), AX
	MOVQ       fin+16(FP), BX
	PSHUFB     X15, X7
	MOVOU      (AX), X0
	PXOR       X0, X7
	MOVOU      (BX), X0
	PXOR       X0, X7
	MOVOU      16(BX), X0
	AESENC     X0, X7
	MOVOU      32(BX), X0
	AESENC     X0, X7
	MOVOU      48(BX), X0
	AESENC     X0, X7
	MOVOU      64(BX), X0
	AESENC     X0, X7
	MOVOU      80(BX), X0
	AESENC     X0, X7
	MOVOU      96(BX), X0
	AESENC     X0, X7
	MOVOU      112(BX), X0
	AESENC     X0, X7
	MOVOU      128(BX), X0
	AESENC     X0, X7
	MOVOU      144(BX), X0
	AESENC     X0, X7
	MOVOU      160(BX), X0
	AESENCLAST X0, X7
	MOVQ       X7, AX
	MOVQ       AX, ret+72(FP)
	RET
