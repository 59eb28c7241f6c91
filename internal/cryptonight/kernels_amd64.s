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

// One round of the memory-hard loop (see walkGo, which the two halves
// mirror statement for statement) over the scratchpad at pad, with mask
// in DI. Register a lives in a0:a1 because it is an address, a
// multiply-add accumulator and an XOR target; b and c live in XMM
// because they only ever meet AESENC, PXOR and 16-byte loads and stores.
// R12, R13, AX, DX and k, kt are scratch.
//
// HALF1: c = AES round of the a-addressed line, keyed by a; store b ^ c
// there (b is left holding it).
#define HALF1(pad, a0, a1, b, c, k, kt) \
	MOVQ a0, R12; \
	ANDQ DI, R12; \
	MOVQ a0, k; \
	MOVQ a1, kt; \
	PUNPCKLQDQ kt, k; \
	MOVOU (pad)(R12*1), c; \
	AESENC k, c; \
	PXOR c, b; \
	MOVOU b, (pad)(R12*1)

// HALF2: a += hi:lo of c0 × d0 on the c-addressed line d; store a; a ^= d;
// b = c. Both lanes of d are loaded before a overwrites them.
#define HALF2(pad, a0, a1, b, c) \
	MOVQ c, AX; \
	MOVQ AX, R13; \
	ANDQ DI, R13; \
	MOVQ (pad)(R13*1), R12; \
	MULQ R12; \
	ADDQ DX, a0; \
	ADDQ AX, a1; \
	MOVQ 8(pad)(R13*1), DX; \
	MOVQ a0, (pad)(R13*1); \
	MOVQ a1, 8(pad)(R13*1); \
	XORQ R12, a0; \
	XORQ DX, a1; \
	MOVO c, b

// func mainLoopAsm(pad *uint64, mask uint64, iters int, ab *[4]uint64)
// Runs iters rounds over the scratchpad at pad, a in R8:R9 and b in X0.
// ab carries a and b across calls.
TEXT ·mainLoopAsm(SB), NOSPLIT, $0-32
	MOVQ pad+0(FP), SI
	MOVQ mask+8(FP), DI
	MOVQ iters+16(FP), CX
	MOVQ ab+24(FP), BX
	MOVQ 0(BX), R8
	MOVQ 8(BX), R9
	MOVOU 16(BX), X0
mainloop:
	HALF1(SI, R8, R9, X0, X1, X2, X3)
	HALF2(SI, R8, R9, X0, X1)
	DECQ CX
	JNZ mainloop
	MOVQ R8, 0(BX)
	MOVQ R9, 8(BX)
	MOVOU X0, 16(BX)
	RET

// func mainLoop2Asm(padA, padB *uint64, mask uint64, iters int, abA, abB *[4]uint64)
// Runs iters rounds of two independent hashes, A over padA (a in R8:R9,
// b in X0) and B over padB (a in R10:R11, b in X2), interleaved half-round
// by half-round. Each round is one serial chain of ~26 cycles that keeps
// the AES unit and the multiplier busy a few cycles of it; the other
// hash's chain runs in the gap. The two share scratch registers, which
// register renaming makes free. abA and abB carry each hash's a and b
// across calls.
TEXT ·mainLoop2Asm(SB), NOSPLIT, $0-48
	MOVQ padA+0(FP), SI
	MOVQ padB+8(FP), BX
	MOVQ mask+16(FP), DI
	MOVQ iters+24(FP), CX
	MOVQ abA+32(FP), R12
	MOVQ 0(R12), R8
	MOVQ 8(R12), R9
	MOVOU 16(R12), X0
	MOVQ abB+40(FP), R12
	MOVQ 0(R12), R10
	MOVQ 8(R12), R11
	MOVOU 16(R12), X2
mainloop2:
	HALF1(SI, R8, R9, X0, X1, X4, X5)
	HALF1(BX, R10, R11, X2, X3, X6, X7)
	HALF2(SI, R8, R9, X0, X1)
	HALF2(BX, R10, R11, X2, X3)
	DECQ CX
	JNZ mainloop2
	MOVQ abA+32(FP), R12
	MOVQ R8, 0(R12)
	MOVQ R9, 8(R12)
	MOVOU X0, 16(R12)
	MOVQ abB+40(FP), R12
	MOVQ R10, 0(R12)
	MOVQ R11, 8(R12)
	MOVOU X2, 16(R12)
	RET
