//go:build amd64 && gc

#include "go_asm.h"
#include "textflag.h"

// func cpuidAsm(leaf uint32) (ebx, ecx uint32)
// Returns EBX and ECX of CPUID with EAX=leaf, ECX=0.
TEXT ·cpuidAsm(SB), NOSPLIT, $0-16
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL BX, ebx+8(FP)
	MOVL CX, ecx+12(FP)
	RET

// func xgetbvAsm() (eax uint32)
// Returns the low half of XCR0: which register states the OS saves.
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
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

// ROUND32 applies one step of AES-128 — OP with the round key at off — to
// the 32 blocks of four hashes in Z0..Z7: Z0, Z1 hold the eight blocks of
// the hash keyed by the schedule at R8, Z2, Z3 those of R9's, and so on.
// Each ZMM holds four consecutive blocks of one hash, so one broadcast
// round key serves it whole.
#define ROUND32(OP, off) \
	VBROADCASTI32X4 off(R8), Z8; \
	VBROADCASTI32X4 off(R9), Z9; \
	VBROADCASTI32X4 off(R10), Z10; \
	VBROADCASTI32X4 off(R11), Z11; \
	OP Z8, Z0, Z0; \
	OP Z8, Z1, Z1; \
	OP Z9, Z2, Z2; \
	OP Z9, Z3, Z3; \
	OP Z10, Z4, Z4; \
	OP Z10, Z5, Z5; \
	OP Z11, Z6, Z6; \
	OP Z11, Z7, Z7

#define ENCRYPT32 \
	ROUND32(VPXORQ, 0); \
	ROUND32(VAESENC, 16); \
	ROUND32(VAESENC, 32); \
	ROUND32(VAESENC, 48); \
	ROUND32(VAESENC, 64); \
	ROUND32(VAESENC, 80); \
	ROUND32(VAESENC, 96); \
	ROUND32(VAESENC, 112); \
	ROUND32(VAESENC, 128); \
	ROUND32(VAESENC, 144); \
	ROUND32(VAESENCLAST, 160)

// LANE4 points rk at the schedule field of hash i (of the four at AX)
// and pad at its scratchpad lane off (in BX), and loads its lane buffer
// into lo, hi.
#define LANE4(i, field, rk, pad, lo, hi) \
	MOVQ (8*i)(AX), DX; \
	LEAQ field(DX), rk; \
	MOVQ Hasher_pad(DX), pad; \
	LEAQ (pad)(BX*8), pad; \
	VMOVDQU64 Hasher_text(DX), lo; \
	VMOVDQU64 (Hasher_text+64)(DX), hi

// UNLANE4 stores hash i's lane buffer back from lo, hi.
#define UNLANE4(i, lo, hi) \
	MOVQ (8*i)(AX), DX; \
	VMOVDQU64 lo, Hasher_text(DX); \
	VMOVDQU64 hi, (Hasher_text+64)(DX)

// LOAD32 sets up the four lanes' schedules (field), pads and buffers for
// the hashes at AX, from pad lane BX.
#define LOAD32(field) \
	LANE4(0, field, R8, R12, Z0, Z1); \
	LANE4(1, field, R9, R13, Z2, Z3); \
	LANE4(2, field, R10, R14, Z4, Z5); \
	LANE4(3, field, R11, R15, Z6, Z7)

// STORE32 stores the four lanes' buffers back to the hashes at AX.
#define STORE32 \
	UNLANE4(0, Z0, Z1); \
	UNLANE4(1, Z2, Z3); \
	UNLANE4(2, Z4, Z5); \
	UNLANE4(3, Z6, Z7); \
	VZEROUPPER

// func explode4Asm(hs *[4]*Hasher, off int, chunks int)
// explodeAsm for four hashes at once, with AVX-512 VAES: each fills
// chunks×128 bytes of its scratchpad from lane off, under its rk0, from
// its lane buffer, and is left holding its last chunk there.
TEXT ·explode4Asm(SB), NOSPLIT, $0-24
	MOVQ hs+0(FP), AX
	MOVQ off+8(FP), BX
	MOVQ chunks+16(FP), CX
	LOAD32(Hasher_rk0)
explode4:
	ENCRYPT32
	VMOVDQU64 Z0, 0(R12)
	VMOVDQU64 Z1, 64(R12)
	VMOVDQU64 Z2, 0(R13)
	VMOVDQU64 Z3, 64(R13)
	VMOVDQU64 Z4, 0(R14)
	VMOVDQU64 Z5, 64(R14)
	VMOVDQU64 Z6, 0(R15)
	VMOVDQU64 Z7, 64(R15)
	ADDQ $128, R12
	ADDQ $128, R13
	ADDQ $128, R14
	ADDQ $128, R15
	DECQ CX
	JNZ explode4
	MOVQ hs+0(FP), AX
	STORE32
	RET

// func implode4Asm(hs *[4]*Hasher, off int, chunks int)
// implodeAsm for four hashes at once, with AVX-512 VAES: each folds
// chunks×128 bytes of its scratchpad, from lane off, into its lane
// buffer under its rk1.
TEXT ·implode4Asm(SB), NOSPLIT, $0-24
	MOVQ hs+0(FP), AX
	MOVQ off+8(FP), BX
	MOVQ chunks+16(FP), CX
	LOAD32(Hasher_rk1)
implode4:
	VPXORQ 0(R12), Z0, Z0
	VPXORQ 64(R12), Z1, Z1
	VPXORQ 0(R13), Z2, Z2
	VPXORQ 64(R13), Z3, Z3
	VPXORQ 0(R14), Z4, Z4
	VPXORQ 64(R14), Z5, Z5
	VPXORQ 0(R15), Z6, Z6
	VPXORQ 64(R15), Z7, Z7
	ENCRYPT32
	ADDQ $128, R12
	ADDQ $128, R13
	ADDQ $128, R14
	ADDQ $128, R15
	DECQ CX
	JNZ implode4
	MOVQ hs+0(FP), AX
	STORE32
	RET

// The 4-lane round: HALF1 and HALF2 again, with every register they
// need beyond a (two GPRs a lane) taken from AX, CX and DX: the mask is
// read from memory, the line address is built in CX from the pad, a
// register or a memory operand, and MULQ reads d0 from the line. That
// leaves 14 GPRs for 4 lanes' a and 3 pads; the 4th pad waits on the
// stack.
//
// QHALF1: c = AES round of the a-addressed line, keyed by a; store b ^ c.
#define QHALF1(mask, pad, a0, a1, b, c, k, kt) \
	MOVQ a0, CX; \
	ANDQ mask, CX; \
	ADDQ pad, CX; \
	MOVQ a0, k; \
	MOVQ a1, kt; \
	PUNPCKLQDQ kt, k; \
	MOVOU (CX), c; \
	AESENC k, c; \
	PXOR c, b; \
	MOVOU b, (CX)

// QHALF2: a += hi:lo of c0 × d0 on the c-addressed line d; store a;
// a ^= d; b = c.
#define QHALF2(mask, pad, a0, a1, b, c) \
	MOVQ c, AX; \
	MOVQ AX, CX; \
	ANDQ mask, CX; \
	ADDQ pad, CX; \
	MULQ (CX); \
	ADDQ DX, a0; \
	ADDQ AX, a1; \
	MOVQ (CX), AX; \
	MOVQ 8(CX), DX; \
	MOVQ a0, (CX); \
	MOVQ a1, 8(CX); \
	XORQ AX, a0; \
	XORQ DX, a1; \
	MOVO c, b

// QLOAD loads hash i's (of the four at AX) a into a0:a1 and b into b.
#define QLOAD(i, a0, a1, b) \
	MOVQ (8*i)(AX), DX; \
	MOVQ Hasher_ab(DX), a0; \
	MOVQ (Hasher_ab+8)(DX), a1; \
	MOVOU (Hasher_ab+16)(DX), b

// QSTORE stores them back.
#define QSTORE(i, a0, a1, b) \
	MOVQ (8*i)(AX), DX; \
	MOVQ a0, Hasher_ab(DX); \
	MOVQ a1, (Hasher_ab+8)(DX); \
	MOVOU b, (Hasher_ab+16)(DX)

// func mainLoop4Asm(hs *[4]*Hasher, mask uint64, iters int)
// Runs iters rounds of four independent hashes, each over its own
// scratchpad from its own ab, interleaved half-round by half-round. Each
// round is one serial chain of ~26 cycles that keeps the AES unit and the
// multiplier busy a few cycles of it; the other hashes' chains run in the
// gaps, sharing scratch registers, which register renaming makes free.
// a lives in R8:R9, R10:R11, R12:R13, R14:R15, b in X0..X3, c in X4..X7,
// the pads in SI, DI, BX and pad3.
TEXT ·mainLoop4Asm(SB), NOSPLIT, $8-24
	MOVQ hs+0(FP), AX
	MOVQ 0(AX), DX
	MOVQ Hasher_pad(DX), SI
	MOVQ 8(AX), DX
	MOVQ Hasher_pad(DX), DI
	MOVQ 16(AX), DX
	MOVQ Hasher_pad(DX), BX
	MOVQ 24(AX), DX
	MOVQ Hasher_pad(DX), DX
	MOVQ DX, pad3-8(SP)
	QLOAD(0, R8, R9, X0)
	QLOAD(1, R10, R11, X1)
	QLOAD(2, R12, R13, X2)
	QLOAD(3, R14, R15, X3)
mainloop4:
	QHALF1(mask+8(FP), SI, R8, R9, X0, X4, X8, X12)
	QHALF1(mask+8(FP), DI, R10, R11, X1, X5, X9, X13)
	QHALF1(mask+8(FP), BX, R12, R13, X2, X6, X10, X14)
	QHALF1(mask+8(FP), pad3-8(SP), R14, R15, X3, X7, X11, X15)
	QHALF2(mask+8(FP), SI, R8, R9, X0, X4)
	QHALF2(mask+8(FP), DI, R10, R11, X1, X5)
	QHALF2(mask+8(FP), BX, R12, R13, X2, X6)
	QHALF2(mask+8(FP), pad3-8(SP), R14, R15, X3, X7)
	DECQ iters+16(FP)
	JNZ mainloop4
	MOVQ hs+0(FP), AX
	QSTORE(0, R8, R9, X0)
	QSTORE(1, R10, R11, X1)
	QSTORE(2, R12, R13, X2)
	QSTORE(3, R14, R15, X3)
	RET
