//go:build !purego

#include "textflag.h"

// SSE2 bodies of the three inner GEMM kernels; kernels_generic.go states what
// each computes. Baseline amd64 only: MULPS/ADDPS round every product and
// every sum like the scalar MULSS/ADDSS, so a lane is one scalar chain.
// NN: lanes are columns (independent chains), so NN also has sixteen-lane
// AVX-512 and eight-lane AVX bodies (kernels_avx_amd64.s) that the CPUID
// probe prefers; these two run on CPUs without AVX2. NT: lanes are the four
// strided partial sums s0..s3, so dot2 stays four lanes wide everywhere:
// eight lanes would be eight partials, another fold. No FMA (one rounding
// instead of two).

// Each column loop is written once and instantiated twice: with the packed
// instructions for four columns at a time, and with the scalar ones for the
// n mod 4 columns that are left.

// NN2P4: c0[j] and c1[j] (column AX) advance through four values of p.
// X0-X3 hold alpha*a0[p..p+3], X4-X7 alpha*a1[p..p+3], each in all lanes;
// BX, R11, R12, R13 point at B rows p..p+3.
#define NN2P4(MOV, MUL, ADD) \
	MOV (BX)(AX*4), X8    \
	MOV (R11)(AX*4), X9   \
	MOV (R12)(AX*4), X10  \
	MOV (R13)(AX*4), X11  \
	MOV (R9)(AX*4), X12   \
	MOV (R10)(AX*4), X13  \
	MOVAPS X8, X14        \
	MUL X0, X14           \
	ADD X14, X12          \
	MUL X4, X8            \
	ADD X8, X13           \
	MOVAPS X9, X14        \
	MUL X1, X14           \
	ADD X14, X12          \
	MUL X5, X9            \
	ADD X9, X13           \
	MOVAPS X10, X14       \
	MUL X2, X14           \
	ADD X14, X12          \
	MUL X6, X10           \
	ADD X10, X13          \
	MOVAPS X11, X14       \
	MUL X3, X14           \
	ADD X14, X12          \
	MUL X7, X11           \
	ADD X11, X13          \
	MOV X12, (R9)(AX*4)   \
	MOV X13, (R10)(AX*4)

// NN2P1: the same for one p (X0 = alpha*a0[p], X4 = alpha*a1[p], B row BX).
#define NN2P1(MOV, MUL, ADD) \
	MOV (BX)(AX*4), X8    \
	MOV (R9)(AX*4), X12   \
	MOV (R10)(AX*4), X13  \
	MOVAPS X8, X14        \
	MUL X0, X14           \
	ADD X14, X12          \
	MUL X4, X8            \
	ADD X8, X13           \
	MOV X12, (R9)(AX*4)   \
	MOV X13, (R10)(AX*4)

// NN1P4 and NN1P1: one row of C.
#define NN1P4(MOV, MUL, ADD) \
	MOV (BX)(AX*4), X8    \
	MOV (R11)(AX*4), X9   \
	MOV (R12)(AX*4), X10  \
	MOV (R13)(AX*4), X11  \
	MOV (R9)(AX*4), X12   \
	MUL X0, X8            \
	ADD X8, X12           \
	MUL X1, X9            \
	ADD X9, X12           \
	MUL X2, X10           \
	ADD X10, X12          \
	MUL X3, X11           \
	ADD X11, X12          \
	MOV X12, (R9)(AX*4)

#define NN1P1(MOV, MUL, ADD) \
	MOV (BX)(AX*4), X8    \
	MOV (R9)(AX*4), X12   \
	MUL X0, X8            \
	ADD X8, X12           \
	MOV X12, (R9)(AX*4)

// COEF: X = alpha * off(base) in all four lanes (alpha is X15).
#define COEF(off, base, X) \
	MOVSS off(base), X    \
	MULSS X15, X          \
	SHUFPS $0, X, X

// COLUMNS runs BODY over columns 0..n-1: packed while j < n&^3 (R14), then
// scalar up to n (CX). vec, tail and done are the labels it defines.
#define COLUMNS(BODY, vec, tail, done) \
	XORQ AX, AX           \
vec:                      \
	CMPQ AX, R14          \
	JGE  tail             \
	BODY(MOVUPS, MULPS, ADDPS) \
	ADDQ $4, AX           \
	JMP  vec              \
tail:                     \
	CMPQ AX, CX           \
	JGE  done             \
	BODY(MOVSS, MULSS, ADDSS) \
	INCQ AX               \
	JMP  tail             \
done:

// func nnRows2SSE2(n, k int, alpha float32, a0, a1, b []float32, ldb int, c0, c1 []float32)
TEXT ·nnRows2SSE2(SB), NOSPLIT, $0-152
	MOVQ  n+0(FP), CX
	MOVQ  k+8(FP), DX
	MOVSS alpha+16(FP), X15
	MOVQ  a0_base+24(FP), SI
	MOVQ  a1_base+48(FP), DI
	MOVQ  b_base+72(FP), BX
	MOVQ  ldb+96(FP), R8
	MOVQ  c0_base+104(FP), R9
	MOVQ  c1_base+128(FP), R10
	SHLQ  $2, R8               // row stride of B in bytes
	MOVQ  CX, R14
	ANDQ  $~3, R14

rows2p4:
	CMPQ DX, $4
	JLT  rows2p1
	COEF(0, SI, X0)
	COEF(4, SI, X1)
	COEF(8, SI, X2)
	COEF(12, SI, X3)
	COEF(0, DI, X4)
	COEF(4, DI, X5)
	COEF(8, DI, X6)
	COEF(12, DI, X7)
	LEAQ (BX)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	COLUMNS(NN2P4, rows2p4vec, rows2p4tail, rows2p4done)
	ADDQ $16, SI
	ADDQ $16, DI
	LEAQ (R13)(R8*1), BX
	SUBQ $4, DX
	JMP  rows2p4

rows2p1:
	TESTQ DX, DX
	JLE   rows2ret
	COEF(0, SI, X0)
	COEF(0, DI, X4)
	COLUMNS(NN2P1, rows2p1vec, rows2p1tail, rows2p1done)
	ADDQ $4, SI
	ADDQ $4, DI
	ADDQ R8, BX
	DECQ DX
	JMP  rows2p1

rows2ret:
	RET

// func nnRowSSE2(n, k int, alpha float32, a0, b []float32, ldb int, c0 []float32)
TEXT ·nnRowSSE2(SB), NOSPLIT, $0-104
	MOVQ  n+0(FP), CX
	MOVQ  k+8(FP), DX
	MOVSS alpha+16(FP), X15
	MOVQ  a0_base+24(FP), SI
	MOVQ  b_base+48(FP), BX
	MOVQ  ldb+72(FP), R8
	MOVQ  c0_base+80(FP), R9
	SHLQ  $2, R8
	MOVQ  CX, R14
	ANDQ  $~3, R14

rowp4:
	CMPQ DX, $4
	JLT  rowp1
	COEF(0, SI, X0)
	COEF(4, SI, X1)
	COEF(8, SI, X2)
	COEF(12, SI, X3)
	LEAQ (BX)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	COLUMNS(NN1P4, rowp4vec, rowp4tail, rowp4done)
	ADDQ $16, SI
	LEAQ (R13)(R8*1), BX
	SUBQ $4, DX
	JMP  rowp4

rowp1:
	TESTQ DX, DX
	JLE   rowret
	COEF(0, SI, X0)
	COLUMNS(NN1P1, rowp1vec, rowp1tail, rowp1done)
	ADDQ $4, SI
	ADDQ R8, BX
	DECQ DX
	JMP  rowp1

rowret:
	RET

// FOLD: the low lane of S becomes ((s0+s1)+s2)+s3. ADDSS leaves the upper
// lanes of S alone, so each partial is still there when its turn comes.
#define FOLD(S, T) \
	MOVAPS S, T           \
	SHUFPS $0x55, T, T    \
	ADDSS  T, S           \
	MOVAPS S, T           \
	SHUFPS $0xAA, T, T    \
	ADDSS  T, S           \
	MOVAPS S, T           \
	SHUFPS $0xFF, T, T    \
	ADDSS  T, S

// func dot2(x, y, z []float32) (float32, float32)
TEXT ·dot2(SB), NOSPLIT, $0-80
	MOVQ  x_base+0(FP), SI
	MOVQ  x_len+8(FP), CX
	MOVQ  y_base+24(FP), DI
	MOVQ  z_base+48(FP), BX
	XORPS X0, X0               // s0..s3
	XORPS X1, X1               // t0..t3
	MOVQ  CX, R14
	ANDQ  $~3, R14
	XORQ  AX, AX

dotvec:
	CMPQ   AX, R14
	JGE    dotfold
	MOVUPS (SI)(AX*4), X2
	MOVUPS (DI)(AX*4), X3
	MOVUPS (BX)(AX*4), X4
	MULPS  X2, X3
	MULPS  X2, X4
	ADDPS  X3, X0
	ADDPS  X4, X1
	ADDQ   $4, AX
	JMP    dotvec

dotfold:
	FOLD(X0, X5)
	FOLD(X1, X5)

dottail:
	CMPQ  AX, CX
	JGE   dotret
	MOVSS (SI)(AX*4), X2
	MOVSS (DI)(AX*4), X3
	MOVSS (BX)(AX*4), X4
	MULSS X2, X3
	MULSS X2, X4
	ADDSS X3, X0
	ADDSS X4, X1
	INCQ  AX
	JMP   dottail

dotret:
	MOVSS X0, ret+72(FP)
	MOVSS X1, ret1+76(FP)
	RET
