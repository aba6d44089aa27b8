// The key expansion below follows expandKeyAsm and its helpers in Go's
// crypto/internal/fips140/aes/aes_amd64.s: Copyright 2012 The Go Authors.
// All rights reserved. Use of that source code is governed by a BSD-style
// license that can be found in Go's LICENSE file.

#include "textflag.h"

// func cpuidECX() uint32
TEXT ·cpuidECX(SB), NOSPLIT, $0-4
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVL  CX, ret+0(FP)
	RET

// func expandKey(nr int, key *byte, enc *[maxRoundKeyBytes]byte)
// Requires: AES, SSE2
TEXT ·expandKey(SB), NOSPLIT, $0-24
	MOVQ   nr+0(FP), CX
	MOVQ   key+8(FP), AX
	MOVQ   enc+16(FP), BX
	MOVUPS (AX), X0
	MOVUPS X0, (BX)
	ADDQ   $0x10, BX
	PXOR   X4, X4
	CMPL   CX, $0x0c
	JE     enc192
	JB     enc128
	MOVUPS          16(AX), X2
	MOVUPS          X2, (BX)
	ADDQ            $0x10, BX
	AESKEYGENASSIST $0x01, X2, X1
	CALL            expand128<>(SB)
	AESKEYGENASSIST $0x01, X0, X1
	CALL            expand256b<>(SB)
	AESKEYGENASSIST $0x02, X2, X1
	CALL            expand128<>(SB)
	AESKEYGENASSIST $0x02, X0, X1
	CALL            expand256b<>(SB)
	AESKEYGENASSIST $0x04, X2, X1
	CALL            expand128<>(SB)
	AESKEYGENASSIST $0x04, X0, X1
	CALL            expand256b<>(SB)
	AESKEYGENASSIST $0x08, X2, X1
	CALL            expand128<>(SB)
	AESKEYGENASSIST $0x08, X0, X1
	CALL            expand256b<>(SB)
	AESKEYGENASSIST $0x10, X2, X1
	CALL            expand128<>(SB)
	AESKEYGENASSIST $0x10, X0, X1
	CALL            expand256b<>(SB)
	AESKEYGENASSIST $0x20, X2, X1
	CALL            expand128<>(SB)
	AESKEYGENASSIST $0x20, X0, X1
	CALL            expand256b<>(SB)
	AESKEYGENASSIST $0x40, X2, X1
	CALL            expand128<>(SB)
	RET

enc192:
	MOVQ            16(AX), X2
	AESKEYGENASSIST $0x01, X2, X1
	CALL            expand192a<>(SB)
	AESKEYGENASSIST $0x02, X2, X1
	CALL            expand192b<>(SB)
	AESKEYGENASSIST $0x04, X2, X1
	CALL            expand192a<>(SB)
	AESKEYGENASSIST $0x08, X2, X1
	CALL            expand192b<>(SB)
	AESKEYGENASSIST $0x10, X2, X1
	CALL            expand192a<>(SB)
	AESKEYGENASSIST $0x20, X2, X1
	CALL            expand192b<>(SB)
	AESKEYGENASSIST $0x40, X2, X1
	CALL            expand192a<>(SB)
	AESKEYGENASSIST $0x80, X2, X1
	CALL            expand192b<>(SB)
	RET

enc128:
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

// expand128 is one round of the AES-128 schedule, and the first half of
// one of AES-256's: X0 is the previous round key, X1 AESKEYGENASSIST's
// output, X4 zero on entry; the new key goes to X0 and to (BX).
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

TEXT expand192a<>(SB), NOSPLIT, $0
	PSHUFD $0x55, X1, X1
	SHUFPS $0x10, X0, X4
	PXOR   X4, X0
	SHUFPS $0x8c, X0, X4
	PXOR   X4, X0
	PXOR   X1, X0
	MOVAPS X2, X5
	MOVAPS X2, X6
	PSLLDQ $0x04, X5
	PSHUFD $0xff, X0, X3
	PXOR   X3, X2
	PXOR   X5, X2
	MOVAPS X0, X1
	SHUFPS $0x44, X0, X6
	MOVUPS X6, (BX)
	SHUFPS $0x4e, X2, X1
	MOVUPS X1, 16(BX)
	ADDQ   $0x20, BX
	RET

TEXT expand192b<>(SB), NOSPLIT, $0
	PSHUFD $0x55, X1, X1
	SHUFPS $0x10, X0, X4
	PXOR   X4, X0
	SHUFPS $0x8c, X0, X4
	PXOR   X4, X0
	PXOR   X1, X0
	MOVAPS X2, X5
	PSLLDQ $0x04, X5
	PSHUFD $0xff, X0, X3
	PXOR   X3, X2
	PXOR   X5, X2
	MOVUPS X0, (BX)
	ADDQ   $0x10, BX
	RET

TEXT expand256b<>(SB), NOSPLIT, $0
	PSHUFD $0xaa, X1, X1
	SHUFPS $0x10, X2, X4
	PXOR   X4, X2
	SHUFPS $0x8c, X2, X4
	PXOR   X4, X2
	PXOR   X1, X2
	MOVUPS X2, (BX)
	ADDQ   $0x10, BX
	RET

// ROUND runs one AES round on the line's four blocks under the key in X8.
#define ROUND \
	AESENC X8, X0 \
	AESENC X8, X1 \
	AESENC X8, X2 \
	AESENC X8, X3

// func xorLine(nr int, enc *[maxRoundKeyBytes]byte, dst, src *[LineBytes]byte, addr, counter uint64)
// Requires: AES, SSE2, SSE4.1
TEXT ·xorLine(SB), NOSPLIT, $0-48
	MOVQ nr+0(FP), CX
	MOVQ enc+8(FP), AX
	MOVQ dst+16(FP), DI
	MOVQ src+24(FP), SI
	MOVQ counter+40(FP), DX
	SHLQ $4, DX

	// Block i is LE64(addr) ‖ LE64(counter<<4 | i).
	MOVQ   addr+32(FP), X0
	MOVOU  X0, X1
	MOVOU  X0, X2
	MOVOU  X0, X3
	PINSRQ $1, DX, X0
	INCQ   DX
	PINSRQ $1, DX, X1
	INCQ   DX
	PINSRQ $1, DX, X2
	INCQ   DX
	PINSRQ $1, DX, X3

	MOVOU (AX), X8
	PXOR  X8, X0
	PXOR  X8, X1
	PXOR  X8, X2
	PXOR  X8, X3
	ADDQ  $0x10, AX

	// nr-1 full rounds, then the last: 9, 11 or 13 of them.
	DECQ CX

round:
	MOVOU (AX), X8
	ROUND
	ADDQ  $0x10, AX
	DECQ  CX
	JNZ   round

	MOVOU      (AX), X8
	AESENCLAST X8, X0
	AESENCLAST X8, X1
	AESENCLAST X8, X2
	AESENCLAST X8, X3

	MOVOU (SI), X4
	MOVOU 16(SI), X5
	MOVOU 32(SI), X6
	MOVOU 48(SI), X7
	PXOR  X4, X0
	PXOR  X5, X1
	PXOR  X6, X2
	PXOR  X7, X3
	MOVOU X0, (DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	RET
