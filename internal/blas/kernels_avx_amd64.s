//go:build !purego

#include "textflag.h"

// AVX-512 and AVX bodies of the NN kernels, picked by nnRows2 and nnRow (B
// float32) and nnRows2H and nnRowH (B binary16) when the CPU has AVX-512F or
// AVX2, and F16C for the binary16 ones (kernels_avx_amd64.go). They compute
// what the Go kernels of the same names do in kernels_generic.go, sixteen or
// eight columns at a time: a lane is a column of C, so VMULPS/VADDPS on
// c[j..j+15] run sixteen scalar chains side by side, each one rounded multiply
// then one rounded add per p, p ascending — the same bits as eight lanes, four
// or one. A binary16 B is converted in its load (VCVTPH2PS), which is exact,
// so the chains see the same float32 values as Gemm over the decoded B. The
// AVX-512 bodies take the n mod 16 columns left in one eight-lane step (n&8);
// both then take one four-lane step (n&4) and the scalar forms. Every AVX
// instruction is VEX-encoded and every AVX-512 one EVEX-encoded (no SSE/AVX
// transition), there is no FMA, and VZEROUPPER precedes each RET.

// Each column body takes its instructions, its B load and its registers as
// arguments and is instantiated four times below: sixteen lanes (Z), eight
// lanes (Y), four lanes (X) and one lane (scalar forms on X). The Y and X
// registers are the low halves of the Z ones, so the coefficients broadcast
// into Z0-Z7 serve every width.

// The B loads: V = B[p, j…] from the row at base, column AX. LDF and LDFS
// read float32 (vector and scalar forms); LDH and LDHS read binary16 and
// convert it — VCVTPH2PS reads exactly as many halves as V has lanes, and the
// scalar form inserts one half into lane 0 first.
#define LDF(base, V) VMOVUPS (base)(AX*4), V
#define LDFS(base, V) VMOVSS (base)(AX*4), V
#define LDH(base, V) VCVTPH2PS (base)(AX*2), V
#define LDHS(base, V) VPINSRW $0, (base)(AX*2), V, V; VCVTPH2PS V, V

// NN2P4: c0[j] and c1[j] (column AX) advance through four values of p.
// K0-K3 hold alpha*a0[p..p+3], K4-K7 alpha*a1[p..p+3], each in every lane;
// BX, R11, R12, R13 point at B rows p..p+3. V and T are scratch.
#define NN2P4(MOV, MUL, ADD, LD, K0, K1, K2, K3, K4, K5, K6, K7, V, T, C0, C1) \
	MOV (R9)(AX*4), C0    \
	MOV (R10)(AX*4), C1   \
	LD(BX, V)             \
	MUL V, K0, T          \
	ADD T, C0, C0         \
	MUL V, K4, V          \
	ADD V, C1, C1         \
	LD(R11, V)            \
	MUL V, K1, T          \
	ADD T, C0, C0         \
	MUL V, K5, V          \
	ADD V, C1, C1         \
	LD(R12, V)            \
	MUL V, K2, T          \
	ADD T, C0, C0         \
	MUL V, K6, V          \
	ADD V, C1, C1         \
	LD(R13, V)            \
	MUL V, K3, T          \
	ADD T, C0, C0         \
	MUL V, K7, V          \
	ADD V, C1, C1         \
	MOV C0, (R9)(AX*4)    \
	MOV C1, (R10)(AX*4)

#define NN2P4Z(LD) NN2P4(VMOVUPS, VMULPS, VADDPS, LD, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z12, Z13)
#define NN2P4Y(LD) NN2P4(VMOVUPS, VMULPS, VADDPS, LD, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y12, Y13)
#define NN2P4X(LD) NN2P4(VMOVUPS, VMULPS, VADDPS, LD, X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X12, X13)
#define NN2P4S(LD) NN2P4(VMOVSS, VMULSS, VADDSS, LD, X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X12, X13)

// NN2P1: the same for one p (K0 = alpha*a0[p], K4 = alpha*a1[p], B row BX).
#define NN2P1(MOV, MUL, ADD, LD, K0, K4, V, T, C0, C1) \
	MOV (R9)(AX*4), C0    \
	MOV (R10)(AX*4), C1   \
	LD(BX, V)             \
	MUL V, K0, T          \
	ADD T, C0, C0         \
	MUL V, K4, V          \
	ADD V, C1, C1         \
	MOV C0, (R9)(AX*4)    \
	MOV C1, (R10)(AX*4)

#define NN2P1Z(LD) NN2P1(VMOVUPS, VMULPS, VADDPS, LD, Z0, Z4, Z8, Z9, Z12, Z13)
#define NN2P1Y(LD) NN2P1(VMOVUPS, VMULPS, VADDPS, LD, Y0, Y4, Y8, Y9, Y12, Y13)
#define NN2P1X(LD) NN2P1(VMOVUPS, VMULPS, VADDPS, LD, X0, X4, X8, X9, X12, X13)
#define NN2P1S(LD) NN2P1(VMOVSS, VMULSS, VADDSS, LD, X0, X4, X8, X9, X12, X13)

// NN1P4 and NN1P1: one row of C.
#define NN1P4(MOV, MUL, ADD, LD, K0, K1, K2, K3, V, C0) \
	MOV (R9)(AX*4), C0    \
	LD(BX, V)             \
	MUL V, K0, V          \
	ADD V, C0, C0         \
	LD(R11, V)            \
	MUL V, K1, V          \
	ADD V, C0, C0         \
	LD(R12, V)            \
	MUL V, K2, V          \
	ADD V, C0, C0         \
	LD(R13, V)            \
	MUL V, K3, V          \
	ADD V, C0, C0         \
	MOV C0, (R9)(AX*4)

#define NN1P4Z(LD) NN1P4(VMOVUPS, VMULPS, VADDPS, LD, Z0, Z1, Z2, Z3, Z8, Z12)
#define NN1P4Y(LD) NN1P4(VMOVUPS, VMULPS, VADDPS, LD, Y0, Y1, Y2, Y3, Y8, Y12)
#define NN1P4X(LD) NN1P4(VMOVUPS, VMULPS, VADDPS, LD, X0, X1, X2, X3, X8, X12)
#define NN1P4S(LD) NN1P4(VMOVSS, VMULSS, VADDSS, LD, X0, X1, X2, X3, X8, X12)

#define NN1P1(MOV, MUL, ADD, LD, K0, V, C0) \
	MOV (R9)(AX*4), C0    \
	LD(BX, V)             \
	MUL V, K0, V          \
	ADD V, C0, C0         \
	MOV C0, (R9)(AX*4)

#define NN1P1Z(LD) NN1P1(VMOVUPS, VMULPS, VADDPS, LD, Z0, Z8, Z12)
#define NN1P1Y(LD) NN1P1(VMOVUPS, VMULPS, VADDPS, LD, Y0, Y8, Y12)
#define NN1P1X(LD) NN1P1(VMOVUPS, VMULPS, VADDPS, LD, X0, X8, X12)
#define NN1P1S(LD) NN1P1(VMOVSS, VMULSS, VADDSS, LD, X0, X8, X12)

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

// The column loops of each kernel by width (W: AVX-512, N: AVX) and B load
// (LD vector, LDS scalar).
#define R2P4W(LD, LDS) COLUMNS16(NN2P4Z(LD), NN2P4Y(LD), NN2P4X(LD), NN2P4S(LDS), p4wide, p4eight, p4half, p4tail, p4done)
#define R2P1W(LD, LDS) COLUMNS16(NN2P1Z(LD), NN2P1Y(LD), NN2P1X(LD), NN2P1S(LDS), p1wide, p1eight, p1half, p1tail, p1done)
#define R2P4N(LD, LDS) COLUMNS(NN2P4Y(LD), NN2P4X(LD), NN2P4S(LDS), p4vec, p4half, p4tail, p4done)
#define R2P1N(LD, LDS) COLUMNS(NN2P1Y(LD), NN2P1X(LD), NN2P1S(LDS), p1vec, p1half, p1tail, p1done)
#define R1P4W(LD, LDS) COLUMNS16(NN1P4Z(LD), NN1P4Y(LD), NN1P4X(LD), NN1P4S(LDS), p4wide, p4eight, p4half, p4tail, p4done)
#define R1P1W(LD, LDS) COLUMNS16(NN1P1Z(LD), NN1P1Y(LD), NN1P1X(LD), NN1P1S(LDS), p1wide, p1eight, p1half, p1tail, p1done)
#define R1P4N(LD, LDS) COLUMNS(NN1P4Y(LD), NN1P4X(LD), NN1P4S(LDS), p4vec, p4half, p4tail, p4done)
#define R1P1N(LD, LDS) COLUMNS(NN1P1Y(LD), NN1P1X(LD), NN1P1S(LDS), p1vec, p1half, p1tail, p1done)

// ROWS2 is the body of a two-row kernel: four values of p per pass over the
// columns (P4, the column loop), then one at a time (P1). MASK rounds n down
// to the widest step (R14), SHIFT turns ldb into B's row stride in bytes (2
// for float32, 1 for binary16) and W0-W7 are the registers the coefficients
// are broadcast into (Y or Z).
#define ROWS2(MASK, SHIFT, W0, W1, W2, W3, W4, W5, W6, W7, P4, P1) \
	MOVQ   n+0(FP), CX          \
	MOVQ   k+8(FP), DX          \
	VMOVSS alpha+16(FP), X15    \
	MOVQ   a0_base+24(FP), SI   \
	MOVQ   a1_base+48(FP), DI   \
	MOVQ   b_base+72(FP), BX    \
	MOVQ   ldb+96(FP), R8       \
	MOVQ   c0_base+104(FP), R9  \
	MOVQ   c1_base+128(FP), R10 \
	SHLQ   SHIFT, R8            \
	MOVQ   CX, R14              \
	ANDQ   MASK, R14            \
p4:                             \
	CMPQ DX, $4                 \
	JLT  p1                     \
	COEF(0, SI, X0, W0)         \
	COEF(4, SI, X1, W1)         \
	COEF(8, SI, X2, W2)         \
	COEF(12, SI, X3, W3)        \
	COEF(0, DI, X4, W4)         \
	COEF(4, DI, X5, W5)         \
	COEF(8, DI, X6, W6)         \
	COEF(12, DI, X7, W7)        \
	LEAQ (BX)(R8*1), R11        \
	LEAQ (R11)(R8*1), R12       \
	LEAQ (R12)(R8*1), R13       \
	P4                          \
	ADDQ $16, SI                \
	ADDQ $16, DI                \
	LEAQ (R13)(R8*1), BX        \
	SUBQ $4, DX                 \
	JMP  p4                     \
p1:                             \
	TESTQ DX, DX                \
	JLE   done                  \
	COEF(0, SI, X0, W0)         \
	COEF(0, DI, X4, W4)         \
	P1                          \
	ADDQ $4, SI                 \
	ADDQ $4, DI                 \
	ADDQ R8, BX                 \
	DECQ DX                     \
	JMP  p1                     \
done:                           \
	VZEROUPPER                  \
	RET

// ROW is ROWS2 for one row.
#define ROW(MASK, SHIFT, W0, W1, W2, W3, P4, P1) \
	MOVQ   n+0(FP), CX          \
	MOVQ   k+8(FP), DX          \
	VMOVSS alpha+16(FP), X15    \
	MOVQ   a0_base+24(FP), SI   \
	MOVQ   b_base+48(FP), BX    \
	MOVQ   ldb+72(FP), R8       \
	MOVQ   c0_base+80(FP), R9   \
	SHLQ   SHIFT, R8            \
	MOVQ   CX, R14              \
	ANDQ   MASK, R14            \
p4:                             \
	CMPQ DX, $4                 \
	JLT  p1                     \
	COEF(0, SI, X0, W0)         \
	COEF(4, SI, X1, W1)         \
	COEF(8, SI, X2, W2)         \
	COEF(12, SI, X3, W3)        \
	LEAQ (BX)(R8*1), R11        \
	LEAQ (R11)(R8*1), R12       \
	LEAQ (R12)(R8*1), R13       \
	P4                          \
	ADDQ $16, SI                \
	LEAQ (R13)(R8*1), BX        \
	SUBQ $4, DX                 \
	JMP  p4                     \
p1:                             \
	TESTQ DX, DX                \
	JLE   done                  \
	COEF(0, SI, X0, W0)         \
	P1                          \
	ADDQ $4, SI                 \
	ADDQ R8, BX                 \
	DECQ DX                     \
	JMP  p1                     \
done:                           \
	VZEROUPPER                  \
	RET

// func nnRows2AVX512(n, k int, alpha float32, a0, a1, b []float32, ldb int, c0, c1 []float32)
TEXT ·nnRows2AVX512(SB), NOSPLIT, $0-152
	ROWS2($~15, $2, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, R2P4W(LDF, LDFS), R2P1W(LDF, LDFS))

// func nnRowAVX512(n, k int, alpha float32, a0, b []float32, ldb int, c0 []float32)
TEXT ·nnRowAVX512(SB), NOSPLIT, $0-104
	ROW($~15, $2, Z0, Z1, Z2, Z3, R1P4W(LDF, LDFS), R1P1W(LDF, LDFS))

// func nnRows2AVX(n, k int, alpha float32, a0, a1, b []float32, ldb int, c0, c1 []float32)
TEXT ·nnRows2AVX(SB), NOSPLIT, $0-152
	ROWS2($~7, $2, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, R2P4N(LDF, LDFS), R2P1N(LDF, LDFS))

// func nnRowAVX(n, k int, alpha float32, a0, b []float32, ldb int, c0 []float32)
TEXT ·nnRowAVX(SB), NOSPLIT, $0-104
	ROW($~7, $2, Y0, Y1, Y2, Y3, R1P4N(LDF, LDFS), R1P1N(LDF, LDFS))

// func nnRows2HAVX512(n, k int, alpha float32, a0, a1 []float32, b []uint16, ldb int, c0, c1 []float32)
TEXT ·nnRows2HAVX512(SB), NOSPLIT, $0-152
	ROWS2($~15, $1, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, R2P4W(LDH, LDHS), R2P1W(LDH, LDHS))

// func nnRowHAVX512(n, k int, alpha float32, a0 []float32, b []uint16, ldb int, c0 []float32)
TEXT ·nnRowHAVX512(SB), NOSPLIT, $0-104
	ROW($~15, $1, Z0, Z1, Z2, Z3, R1P4W(LDH, LDHS), R1P1W(LDH, LDHS))

// func nnRows2HAVX(n, k int, alpha float32, a0, a1 []float32, b []uint16, ldb int, c0, c1 []float32)
TEXT ·nnRows2HAVX(SB), NOSPLIT, $0-152
	ROWS2($~7, $1, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, R2P4N(LDH, LDHS), R2P1N(LDH, LDHS))

// func nnRowHAVX(n, k int, alpha float32, a0 []float32, b []uint16, ldb int, c0 []float32)
TEXT ·nnRowHAVX(SB), NOSPLIT, $0-104
	ROW($~7, $1, Y0, Y1, Y2, Y3, R1P4N(LDH, LDHS), R1P1N(LDH, LDHS))
