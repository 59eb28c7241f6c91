//go:build amd64 && gc

#include "textflag.h"

// func cpuidAsm(leaf uint32) (ecx uint32)
// Returns ECX of CPUID with EAX=leaf, ECX=0.
TEXT ·cpuidAsm(SB), NOSPLIT, $0-12
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL CX, ecx+8(FP)
	RET

// ROUND8 applies one step of AES-128 — OP with the round key at off(AX) —
// to the eight blocks in X0..X7. Eight independent chains keep the AES
// unit's pipeline full; the 176 key bytes stay in L1 and cost one load per
// eight OPs.
#define ROUND8(OP, off) \
	MOVOU off(AX), X8; \
	OP X8, X0; \
	OP X8, X1; \
	OP X8, X2; \
	OP X8, X3; \
	OP X8, X4; \
	OP X8, X5; \
	OP X8, X6; \
	OP X8, X7

// ENCRYPT8 is a full AES-128 encryption of X0..X7 under the schedule at AX.
#define ENCRYPT8 \
	ROUND8(PXOR, 0); \
	ROUND8(AESENC, 16); \
	ROUND8(AESENC, 32); \
	ROUND8(AESENC, 48); \
	ROUND8(AESENC, 64); \
	ROUND8(AESENC, 80); \
	ROUND8(AESENC, 96); \
	ROUND8(AESENC, 112); \
	ROUND8(AESENC, 128); \
	ROUND8(AESENC, 144); \
	ROUND8(AESENCLAST, 160)

#define LOAD8(base) \
	MOVOU 0(base), X0; \
	MOVOU 16(base), X1; \
	MOVOU 32(base), X2; \
	MOVOU 48(base), X3; \
	MOVOU 64(base), X4; \
	MOVOU 80(base), X5; \
	MOVOU 96(base), X6; \
	MOVOU 112(base), X7

#define STORE8(base) \
	MOVOU X0, 0(base); \
	MOVOU X1, 16(base); \
	MOVOU X2, 32(base); \
	MOVOU X3, 48(base); \
	MOVOU X4, 64(base); \
	MOVOU X5, 80(base); \
	MOVOU X6, 96(base); \
	MOVOU X7, 112(base)

// func explodeAsm(rk *roundKeys, text *[16]uint64, pad *uint64, chunks int)
// Fills chunks×128 bytes at pad: each chunk is the previous one (text, for
// the first) encrypted block by block. text is left holding the last chunk,
// so the next call carries on where this one stopped.
TEXT ·explodeAsm(SB), NOSPLIT, $0-32
	MOVQ rk+0(FP), AX
	MOVQ text+8(FP), BX
	MOVQ pad+16(FP), DI
	MOVQ chunks+24(FP), CX
	LOAD8(BX)
explode:
	ENCRYPT8
	STORE8(DI)
	ADDQ $128, DI
	DECQ CX
	JNZ explode
	STORE8(BX)
	RET

// func implodeAsm(rk *roundKeys, text *[16]uint64, pad *uint64, chunks int)
// Folds chunks×128 bytes at pad into text: text = encrypt(text XOR chunk),
// chunk after chunk.
TEXT ·implodeAsm(SB), NOSPLIT, $0-32
	MOVQ rk+0(FP), AX
	MOVQ text+8(FP), BX
	MOVQ pad+16(FP), DI
	MOVQ chunks+24(FP), CX
	LOAD8(BX)
implode:
	MOVOU 0(DI), X8
	MOVOU 16(DI), X9
	MOVOU 32(DI), X10
	MOVOU 48(DI), X11
	MOVOU 64(DI), X12
	MOVOU 80(DI), X13
	MOVOU 96(DI), X14
	MOVOU 112(DI), X15
	PXOR X8, X0
	PXOR X9, X1
	PXOR X10, X2
	PXOR X11, X3
	PXOR X12, X4
	PXOR X13, X5
	PXOR X14, X6
	PXOR X15, X7
	ENCRYPT8
	ADDQ $128, DI
	DECQ CX
	JNZ implode
	STORE8(BX)
	RET

// func mainLoopAsm(pad *uint64, mask uint64, iters int, ab *[4]uint64)
// Runs iters rounds of the memory-hard loop (see walkGo, which it mirrors
// statement for statement) over the scratchpad at pad. Register a lives in
// R8:R9 because it is an address, a multiply-add accumulator and an XOR
// target; b and c live in X0/X1 because they only ever meet AESENC, PXOR
// and 16-byte loads and stores. ab carries a and b across calls.
TEXT ·mainLoopAsm(SB), NOSPLIT, $0-32
	MOVQ pad+0(FP), SI
	MOVQ mask+8(FP), DI
	MOVQ iters+16(FP), CX
	MOVQ ab+24(FP), BX
	MOVQ 0(BX), R8
	MOVQ 8(BX), R9
	MOVOU 16(BX), X0
mainloop:
	// c = AES round of the a-addressed line, keyed by a; store b ^ c there.
	MOVQ R8, R10
	ANDQ DI, R10
	MOVQ R8, X2
	MOVQ R9, X3
	PUNPCKLQDQ X3, X2
	MOVOU (SI)(R10*1), X1
	AESENC X2, X1
	PXOR X1, X0
	MOVOU X0, (SI)(R10*1)
	// a += hi:lo of c0 × d0 on the c-addressed line d; store a; a ^= d.
	MOVQ X1, AX
	MOVQ AX, R11
	ANDQ DI, R11
	MOVQ (SI)(R11*1), R12
	MOVQ 8(SI)(R11*1), R13
	MULQ R12
	ADDQ DX, R8
	ADDQ AX, R9
	MOVQ R8, (SI)(R11*1)
	MOVQ R9, 8(SI)(R11*1)
	XORQ R12, R8
	XORQ R13, R9
	MOVO X1, X0
	DECQ CX
	JNZ mainloop
	MOVQ R8, 0(BX)
	MOVQ R9, 8(BX)
	MOVOU X0, 16(BX)
	RET
