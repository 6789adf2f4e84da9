//go:build !purego

#include "textflag.h"

// AVX bodies of the two NN kernels, picked by gemmNN when the CPU has AVX2
// (kernels_avx_amd64.go). They compute what nnRows2 and nnRow do in
// kernels_generic.go, eight columns at a time: a lane is a column of C, so
// VMULPS/VADDPS on c[j..j+7] run eight scalar chains side by side, each one
// rounded multiply then one rounded add per p, p ascending — the same bits as
// four lanes or one. The n mod 8 columns left take one four-lane step (n&4)
// and then the scalar forms. Every instruction is VEX-encoded (no SSE/AVX
// transition), there is no FMA, and VZEROUPPER precedes each RET.

// Each column body takes its instructions and registers as arguments and is
// instantiated three times below: eight lanes (Y), four lanes (X) and one
// lane (scalar forms on X).

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

#define NN1P4Y NN1P4(VMOVUPS, VMULPS, VADDPS, Y0, Y1, Y2, Y3, Y8, Y12)
#define NN1P4X NN1P4(VMOVUPS, VMULPS, VADDPS, X0, X1, X2, X3, X8, X12)
#define NN1P4S NN1P4(VMOVSS, VMULSS, VADDSS, X0, X1, X2, X3, X8, X12)

#define NN1P1(MOV, MUL, ADD, K0, V, C0) \
	MOV (R9)(AX*4), C0    \
	MOV (BX)(AX*4), V     \
	MUL V, K0, V          \
	ADD V, C0, C0         \
	MOV C0, (R9)(AX*4)

#define NN1P1Y NN1P1(VMOVUPS, VMULPS, VADDPS, Y0, Y8, Y12)
#define NN1P1X NN1P1(VMOVUPS, VMULPS, VADDPS, X0, X8, X12)
#define NN1P1S NN1P1(VMOVSS, VMULSS, VADDSS, X0, X8, X12)

// COEF: K = alpha * off(base) in all eight lanes (alpha is X15; KX is the
// low half of K).
#define COEF(off, base, KX, K) \
	VMOVSS       off(base), KX \
	VMULSS       X15, KX, KX   \
	VBROADCASTSS KX, K

// COLUMNS runs the body over columns 0..n-1: eight lanes while j < n&^7
// (R14), four lanes once if n&4, then scalar up to n (CX). vec, half, tail
// and done are the labels it defines.
#define COLUMNS(Y, X, S, vec, half, tail, done) \
	XORQ AX, AX           \
vec:                      \
	CMPQ AX, R14          \
	JGE  half             \
	Y                     \
	ADDQ $8, AX           \
	JMP  vec              \
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

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
