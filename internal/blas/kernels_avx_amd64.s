//go:build !purego

#include "textflag.h"

// AVX-512 and AVX bodies of the two NN kernels, picked by nnRows2 and nnRow
// when the CPU has AVX-512F or AVX2 (kernels_avx_amd64.go). They compute what
// nnRows2 and nnRow do in kernels_generic.go, sixteen or eight columns at a
// time: a lane is a column of C, so VMULPS/VADDPS on c[j..j+15] run sixteen
// scalar chains side by side, each one rounded multiply then one rounded add
// per p, p ascending — the same bits as eight lanes, four or one. The AVX-512
// bodies take the n mod 16 columns left in one eight-lane step (n&8); both
// then take one four-lane step (n&4) and the scalar forms. Every AVX
// instruction is VEX-encoded and every AVX-512 one EVEX-encoded (no SSE/AVX
// transition), there is no FMA, and VZEROUPPER precedes each RET.

// Each column body takes its instructions and registers as arguments and is
// instantiated four times below: sixteen lanes (Z), eight lanes (Y), four
// lanes (X) and one lane (scalar forms on X). The Y and X registers are the
// low halves of the Z ones, so the coefficients broadcast into Z0-Z7 serve
// every width.

// NN2P4: c0[j] and c1[j] (column AX) advance through four values of p.
// K0-K3 hold alpha*a0[p..p+3], K4-K7 alpha*a1[p..p+3], each in every lane;
// BX, R11, R12, R13 point at B rows p..p+3. V and T are scratch.
#define NN2P4(MOV, MUL, ADD, K0, K1, K2, K3, K4, K5, K6, K7, V, T, C0, C1) \
	MOV (R9)(AX*4), C0    \
	MOV (R10)(AX*4), C1   \
	MOV (BX)(AX*4), V     \
	MUL V, K0, T          \
	ADD T, C0, C0         \
	MUL V, K4, V          \
	ADD V, C1, C1         \
	MOV (R11)(AX*4), V    \
	MUL V, K1, T          \
	ADD T, C0, C0         \
	MUL V, K5, V          \
	ADD V, C1, C1         \
	MOV (R12)(AX*4), V    \
	MUL V, K2, T          \
	ADD T, C0, C0         \
	MUL V, K6, V          \
	ADD V, C1, C1         \
	MOV (R13)(AX*4), V    \
	MUL V, K3, T          \
	ADD T, C0, C0         \
	MUL V, K7, V          \
	ADD V, C1, C1         \
	MOV C0, (R9)(AX*4)    \
	MOV C1, (R10)(AX*4)

#define NN2P4Z NN2P4(VMOVUPS, VMULPS, VADDPS, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z12, Z13)
#define NN2P4Y NN2P4(VMOVUPS, VMULPS, VADDPS, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y12, Y13)
#define NN2P4X NN2P4(VMOVUPS, VMULPS, VADDPS, X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X12, X13)
#define NN2P4S NN2P4(VMOVSS, VMULSS, VADDSS, X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X12, X13)

// NN2P1: the same for one p (K0 = alpha*a0[p], K4 = alpha*a1[p], B row BX).
#define NN2P1(MOV, MUL, ADD, K0, K4, V, T, C0, C1) \
	MOV (R9)(AX*4), C0    \
	MOV (R10)(AX*4), C1   \
	MOV (BX)(AX*4), V     \
	MUL V, K0, T          \
	ADD T, C0, C0         \
	MUL V, K4, V          \
	ADD V, C1, C1         \
	MOV C0, (R9)(AX*4)    \
	MOV C1, (R10)(AX*4)

#define NN2P1Z NN2P1(VMOVUPS, VMULPS, VADDPS, Z0, Z4, Z8, Z9, Z12, Z13)
#define NN2P1Y NN2P1(VMOVUPS, VMULPS, VADDPS, Y0, Y4, Y8, Y9, Y12, Y13)
#define NN2P1X NN2P1(VMOVUPS, VMULPS, VADDPS, X0, X4, X8, X9, X12, X13)
#define NN2P1S NN2P1(VMOVSS, VMULSS, VADDSS, X0, X4, X8, X9, X12, X13)

// NN1P4 and NN1P1: one row of C.
#define NN1P4(MOV, MUL, ADD, K0, K1, K2, K3, V, C0) \
	MOV (R9)(AX*4), C0    \
	MOV (BX)(AX*4), V     \
	MUL V, K0, V          \
	ADD V, C0, C0         \
	MOV (R11)(AX*4), V    \
	MUL V, K1, V          \
	ADD V, C0, C0         \
	MOV (R12)(AX*4), V    \
	MUL V, K2, V          \
	ADD V, C0, C0         \
	MOV (R13)(AX*4), V    \
	MUL V, K3, V          \
	ADD V, C0, C0         \
	MOV C0, (R9)(AX*4)

#define NN1P4Z NN1P4(VMOVUPS, VMULPS, VADDPS, Z0, Z1, Z2, Z3, Z8, Z12)
#define NN1P4Y NN1P4(VMOVUPS, VMULPS, VADDPS, Y0, Y1, Y2, Y3, Y8, Y12)
#define NN1P4X NN1P4(VMOVUPS, VMULPS, VADDPS, X0, X1, X2, X3, X8, X12)
#define NN1P4S NN1P4(VMOVSS, VMULSS, VADDSS, X0, X1, X2, X3, X8, X12)

#define NN1P1(MOV, MUL, ADD, K0, V, C0) \
	MOV (R9)(AX*4), C0    \
	MOV (BX)(AX*4), V     \
	MUL V, K0, V          \
	ADD V, C0, C0         \
	MOV C0, (R9)(AX*4)

#define NN1P1Z NN1P1(VMOVUPS, VMULPS, VADDPS, Z0, Z8, Z12)
#define NN1P1Y NN1P1(VMOVUPS, VMULPS, VADDPS, Y0, Y8, Y12)
#define NN1P1X NN1P1(VMOVUPS, VMULPS, VADDPS, X0, X8, X12)
#define NN1P1S NN1P1(VMOVSS, VMULSS, VADDSS, X0, X8, X12)

// COEF: K = alpha * off(base) in every lane of K, a Y or a Z register (alpha
// is X15; KX is the low quarter of K).
#define COEF(off, base, KX, K) \
	VMOVSS       off(base), KX \
	VMULSS       X15, KX, KX   \
	VBROADCASTSS KX, K

// TAIL: one four-lane step if n&4, then the scalar form up to n (CX). half,
// tail and done are the labels it defines.
#define TAIL(X, S, half, tail, done) \
half:                     \
	TESTQ $4, CX          \
	JZ   tail             \
	X                     \
	ADDQ $4, AX           \
tail:                     \
	CMPQ AX, CX           \
	JGE  done             \
	S                     \
	INCQ AX               \
	JMP  tail             \
done:

// COLUMNS runs the body over columns 0..n-1 on AVX: eight lanes while
// j < n&^7 (R14), then TAIL.
#define COLUMNS(Y, X, S, vec, half, tail, done) \
	XORQ AX, AX           \
vec:                      \
	CMPQ AX, R14          \
	JGE  half             \
	Y                     \
	ADDQ $8, AX           \
	JMP  vec              \
	TAIL(X, S, half, tail, done)

// COLUMNS16 runs it on AVX-512: sixteen lanes while j < n&^15 (R14), one
// eight-lane step if n&8, then TAIL.
#define COLUMNS16(Z, Y, X, S, wide, eight, half, tail, done) \
	XORQ AX, AX           \
wide:                     \
	CMPQ AX, R14          \
	JGE  eight            \
	Z                     \
	ADDQ $16, AX          \
	JMP  wide             \
eight:                    \
	TESTQ $8, CX          \
	JZ   half             \
	Y                     \
	ADDQ $8, AX           \
	TAIL(X, S, half, tail, done)

// func nnRows2AVX(n, k int, alpha float32, a0, a1, b []float32, ldb int, c0, c1 []float32)
TEXT ·nnRows2AVX(SB), NOSPLIT, $0-152
	MOVQ   n+0(FP), CX
	MOVQ   k+8(FP), DX
	VMOVSS alpha+16(FP), X15
	MOVQ   a0_base+24(FP), SI
	MOVQ   a1_base+48(FP), DI
	MOVQ   b_base+72(FP), BX
	MOVQ   ldb+96(FP), R8
	MOVQ   c0_base+104(FP), R9
	MOVQ   c1_base+128(FP), R10
	SHLQ   $2, R8               // row stride of B in bytes
	MOVQ   CX, R14
	ANDQ   $~7, R14

rows2p4:
	CMPQ DX, $4
	JLT  rows2p1
	COEF(0, SI, X0, Y0)
	COEF(4, SI, X1, Y1)
	COEF(8, SI, X2, Y2)
	COEF(12, SI, X3, Y3)
	COEF(0, DI, X4, Y4)
	COEF(4, DI, X5, Y5)
	COEF(8, DI, X6, Y6)
	COEF(12, DI, X7, Y7)
	LEAQ (BX)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	COLUMNS(NN2P4Y, NN2P4X, NN2P4S, rows2p4vec, rows2p4half, rows2p4tail, rows2p4done)
	ADDQ $16, SI
	ADDQ $16, DI
	LEAQ (R13)(R8*1), BX
	SUBQ $4, DX
	JMP  rows2p4

rows2p1:
	TESTQ DX, DX
	JLE   rows2ret
	COEF(0, SI, X0, Y0)
	COEF(0, DI, X4, Y4)
	COLUMNS(NN2P1Y, NN2P1X, NN2P1S, rows2p1vec, rows2p1half, rows2p1tail, rows2p1done)
	ADDQ $4, SI
	ADDQ $4, DI
	ADDQ R8, BX
	DECQ DX
	JMP  rows2p1

rows2ret:
	VZEROUPPER
	RET

// func nnRowAVX(n, k int, alpha float32, a0, b []float32, ldb int, c0 []float32)
TEXT ·nnRowAVX(SB), NOSPLIT, $0-104
	MOVQ   n+0(FP), CX
	MOVQ   k+8(FP), DX
	VMOVSS alpha+16(FP), X15
	MOVQ   a0_base+24(FP), SI
	MOVQ   b_base+48(FP), BX
	MOVQ   ldb+72(FP), R8
	MOVQ   c0_base+80(FP), R9
	SHLQ   $2, R8
	MOVQ   CX, R14
	ANDQ   $~7, R14

rowp4:
	CMPQ DX, $4
	JLT  rowp1
	COEF(0, SI, X0, Y0)
	COEF(4, SI, X1, Y1)
	COEF(8, SI, X2, Y2)
	COEF(12, SI, X3, Y3)
	LEAQ (BX)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	COLUMNS(NN1P4Y, NN1P4X, NN1P4S, rowp4vec, rowp4half, rowp4tail, rowp4done)
	ADDQ $16, SI
	LEAQ (R13)(R8*1), BX
	SUBQ $4, DX
	JMP  rowp4

rowp1:
	TESTQ DX, DX
	JLE   rowret
	COEF(0, SI, X0, Y0)
	COLUMNS(NN1P1Y, NN1P1X, NN1P1S, rowp1vec, rowp1half, rowp1tail, rowp1done)
	ADDQ $4, SI
	ADDQ R8, BX
	DECQ DX
	JMP  rowp1

rowret:
	VZEROUPPER
	RET

// func nnRows2AVX512(n, k int, alpha float32, a0, a1, b []float32, ldb int, c0, c1 []float32)
TEXT ·nnRows2AVX512(SB), NOSPLIT, $0-152
	MOVQ   n+0(FP), CX
	MOVQ   k+8(FP), DX
	VMOVSS alpha+16(FP), X15
	MOVQ   a0_base+24(FP), SI
	MOVQ   a1_base+48(FP), DI
	MOVQ   b_base+72(FP), BX
	MOVQ   ldb+96(FP), R8
	MOVQ   c0_base+104(FP), R9
	MOVQ   c1_base+128(FP), R10
	SHLQ   $2, R8               // row stride of B in bytes
	MOVQ   CX, R14
	ANDQ   $~15, R14

rows2p4:
	CMPQ DX, $4
	JLT  rows2p1
	COEF(0, SI, X0, Z0)
	COEF(4, SI, X1, Z1)
	COEF(8, SI, X2, Z2)
	COEF(12, SI, X3, Z3)
	COEF(0, DI, X4, Z4)
	COEF(4, DI, X5, Z5)
	COEF(8, DI, X6, Z6)
	COEF(12, DI, X7, Z7)
	LEAQ (BX)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	COLUMNS16(NN2P4Z, NN2P4Y, NN2P4X, NN2P4S, rows2p4wide, rows2p4vec, rows2p4half, rows2p4tail, rows2p4done)
	ADDQ $16, SI
	ADDQ $16, DI
	LEAQ (R13)(R8*1), BX
	SUBQ $4, DX
	JMP  rows2p4

rows2p1:
	TESTQ DX, DX
	JLE   rows2ret
	COEF(0, SI, X0, Z0)
	COEF(0, DI, X4, Z4)
	COLUMNS16(NN2P1Z, NN2P1Y, NN2P1X, NN2P1S, rows2p1wide, rows2p1vec, rows2p1half, rows2p1tail, rows2p1done)
	ADDQ $4, SI
	ADDQ $4, DI
	ADDQ R8, BX
	DECQ DX
	JMP  rows2p1

rows2ret:
	VZEROUPPER
	RET

// func nnRowAVX512(n, k int, alpha float32, a0, b []float32, ldb int, c0 []float32)
TEXT ·nnRowAVX512(SB), NOSPLIT, $0-104
	MOVQ   n+0(FP), CX
	MOVQ   k+8(FP), DX
	VMOVSS alpha+16(FP), X15
	MOVQ   a0_base+24(FP), SI
	MOVQ   b_base+48(FP), BX
	MOVQ   ldb+72(FP), R8
	MOVQ   c0_base+80(FP), R9
	SHLQ   $2, R8
	MOVQ   CX, R14
	ANDQ   $~15, R14

rowp4:
	CMPQ DX, $4
	JLT  rowp1
	COEF(0, SI, X0, Z0)
	COEF(4, SI, X1, Z1)
	COEF(8, SI, X2, Z2)
	COEF(12, SI, X3, Z3)
	LEAQ (BX)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	COLUMNS16(NN1P4Z, NN1P4Y, NN1P4X, NN1P4S, rowp4wide, rowp4vec, rowp4half, rowp4tail, rowp4done)
	ADDQ $16, SI
	LEAQ (R13)(R8*1), BX
	SUBQ $4, DX
	JMP  rowp4

rowp1:
	TESTQ DX, DX
	JLE   rowret
	COEF(0, SI, X0, Z0)
	COLUMNS16(NN1P1Z, NN1P1Y, NN1P1X, NN1P1S, rowp1wide, rowp1vec, rowp1half, rowp1tail, rowp1done)
	ADDQ $4, SI
	ADDQ R8, BX
	DECQ DX
	JMP  rowp1

rowret:
	VZEROUPPER
	RET
