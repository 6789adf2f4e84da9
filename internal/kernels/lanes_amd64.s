//go:build !purego

#include "textflag.h"

// Bodies of the lane kernels; expf.go states the chain. SSE2 ones for both,
// which every amd64 CPU runs, and a sixteen-lane AVX-512 one for bias + GELU,
// which lanes_amd64.go calls when the probe (internal/cpufeat) found
// AVX-512F. MULPS/ADDPS/SUBPS/DIVPS and their V…PS forms round each lane like
// the scalar forms, so in expf and GELU a lane is one element's chain and the
// width moves no bits. The softmax stays four lanes: there its sum lanes are
// partials, and sixteen would be another fold. No FMA.

// Every constant in all four lanes. They are used as memory operands, which
// must be 16-byte aligned: the linker aligns a data symbol of 32 bytes or more
// to 32.
#define LANES4(off, v) \
	DATA lanek<>+off(SB)/8, v \
	DATA lanek<>+(off+8)(SB)/8, v
#define LOG2E  lanek<>+0(SB)
#define MAGIC  lanek<>+16(SB)
#define LN2HI  lanek<>+32(SB)
#define LN2LO  lanek<>+48(SB)
#define C0     lanek<>+64(SB)
#define C1     lanek<>+80(SB)
#define C2     lanek<>+96(SB)
#define C3     lanek<>+112(SB)
#define C4     lanek<>+128(SB)
#define C5     lanek<>+144(SB)
#define ONE    lanek<>+160(SB)
#define EXPLO  lanek<>+176(SB)
#define EXPHI  lanek<>+192(SB)
#define GELUC  lanek<>+208(SB)
#define GELUK  lanek<>+224(SB)
#define NEGINF lanek<>+240(SB)
LANES4(0, $0x3fb8aa3b3fb8aa3b)   // LOG2E: expLog2e
LANES4(16, $0x4b4000004b400000)  // MAGIC: expMagic
LANES4(32, $0x3f3180003f318000)  // LN2HI: expLn2Hi
LANES4(48, $0xb95e8083b95e8083)  // LN2LO: expLn2Lo
LANES4(64, $0x3950696739506967)  // C0: expC0
LANES4(80, $0x3ab743ce3ab743ce)  // C1: expC1
LANES4(96, $0x3c0889083c088908)  // C2: expC2
LANES4(112, $0x3d2aa9c13d2aa9c1) // C3: expC3
LANES4(128, $0x3e2aaaaa3e2aaaaa) // C4: expC4
LANES4(144, $0x3f0000003f000000) // C5: expC5
LANES4(160, $0x3f8000003f800000) // ONE: 1
LANES4(176, $0xc2aea8f6c2aea8f6) // EXPLO: expLo
LANES4(192, $0x42b1000042b10000) // EXPHI: expHi
LANES4(208, $0x3d3727133d372713) // GELUC: gelu's 0.044715
LANES4(224, $0xbfcc422abfcc422a) // GELUK: gelu's −2√(2/π)
LANES4(240, $0xff800000ff800000) // NEGINF: −Inf
GLOBL lanek<>(SB), (NOPTR+RODATA), $256

// EXPF: X0 = expf(X0) in every lane; X1-X4 are scratch. In order: t into X1
// (a NaN or an x above expHi enters it as expHi), 2^n into X2, n into X1; r
// into X4 from the x in X0, r² into X3; the polynomial q, then p, in X1;
// p·2^n. The low range rule comes last, as a mask over whatever the chain
// made of those lanes: keep where not x < expLo (predicate 5), which keeps a
// NaN, whose r and p are NaNs.
#define EXPF \
	MOVAPS X0, X1           \
	MINPS  EXPHI, X1        \
	MULPS  LOG2E, X1        \
	ADDPS  MAGIC, X1        \
	MOVAPS X1, X2           \
	PSLLL  $23, X2          \
	PADDL  ONE, X2          \
	SUBPS  MAGIC, X1        \
	MOVAPS X1, X3           \
	MULPS  LN2HI, X3        \
	MOVAPS X0, X4           \
	SUBPS  X3, X4           \
	MULPS  LN2LO, X1        \
	SUBPS  X1, X4           \
	MOVAPS X4, X3           \
	MULPS  X4, X3           \
	MOVAPS C0, X1           \
	MULPS  X4, X1           \
	ADDPS  C1, X1           \
	MULPS  X4, X1           \
	ADDPS  C2, X1           \
	MULPS  X4, X1           \
	ADDPS  C3, X1           \
	MULPS  X4, X1           \
	ADDPS  C4, X1           \
	MULPS  X4, X1           \
	ADDPS  C5, X1           \
	MULPS  X3, X1           \
	ADDPS  X4, X1           \
	ADDPS  ONE, X1          \
	MULPS  X2, X1           \
	CMPPS  EXPLO, X0, $5    \
	ANDPS  X1, X0

// func addBiasGeluSSE2(x, bias []float32)
TEXT ·addBiasGeluSSE2(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ bias_base+24(FP), DI
	XORQ AX, AX
gelu4:
	CMPQ   AX, CX
	JGE    geludone
	MOVUPS (SI)(AX*4), X5
	MOVUPS (DI)(AX*4), X0
	ADDPS  X0, X5           // x
	MOVAPS X5, X0
	MULPS  X5, X0
	MULPS  X5, X0           // x³
	MULPS  GELUC, X0
	ADDPS  X5, X0
	MULPS  GELUK, X0       // −2u
	EXPF
	ADDPS  ONE, X0
	DIVPS  X0, X5
	MOVUPS X5, (SI)(AX*4)
	ADDQ   $4, AX
	JMP    gelu4
geludone:
	RET

// The AVX-512 twin of EXPF and the bias + GELU around it: the same operations
// in the same order, each with the same first operand, sixteen lanes wide.
// The fifteen constants sit broadcast in Z16-Z30 for the whole call.
#define ZLOG2E Z16
#define ZMAGIC Z17
#define ZLN2HI Z18
#define ZLN2LO Z19
#define ZC0    Z20
#define ZC1    Z21
#define ZC2    Z22
#define ZC3    Z23
#define ZC4    Z24
#define ZC5    Z25
#define ZONE   Z26
#define ZEXPLO Z27
#define ZEXPHI Z28
#define ZGELUC Z29
#define ZGELUK Z30

// EXPFZ: Z0 = expf(Z0) in every lane; Z1-Z4 are scratch and K1 the mask. The
// low range rule is the compare into K1 (predicate 5, as in EXPF) and a
// zeroing move: lanes with x < expLo get +0, as ANDPS gives them.
#define EXPFZ \
	VMINPS    ZEXPHI, Z0, Z1  \
	VMULPS    ZLOG2E, Z1, Z1  \
	VADDPS    ZMAGIC, Z1, Z1  \
	VPSLLD    $23, Z1, Z2     \
	VPADDD    ZONE, Z2, Z2    \
	VSUBPS    ZMAGIC, Z1, Z1  \
	VMULPS    ZLN2HI, Z1, Z3  \
	VSUBPS    Z3, Z0, Z4      \
	VMULPS    ZLN2LO, Z1, Z1  \
	VSUBPS    Z1, Z4, Z4      \
	VMULPS    Z4, Z4, Z3      \
	VMULPS    Z4, ZC0, Z1     \
	VADDPS    ZC1, Z1, Z1     \
	VMULPS    Z4, Z1, Z1      \
	VADDPS    ZC2, Z1, Z1     \
	VMULPS    Z4, Z1, Z1      \
	VADDPS    ZC3, Z1, Z1     \
	VMULPS    Z4, Z1, Z1      \
	VADDPS    ZC4, Z1, Z1     \
	VMULPS    Z4, Z1, Z1      \
	VADDPS    ZC5, Z1, Z1     \
	VMULPS    Z3, Z1, Z1      \
	VADDPS    Z4, Z1, Z1      \
	VADDPS    ZONE, Z1, Z1    \
	VMULPS    Z2, Z1, Z1      \
	VCMPPS    $5, ZEXPLO, Z0, K1 \
	VMOVAPS.Z Z1, K1, Z0

// func addBiasGeluAVX512(x, bias []float32)
TEXT ·addBiasGeluAVX512(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ bias_base+24(FP), DI
	VBROADCASTSS LOG2E, ZLOG2E
	VBROADCASTSS MAGIC, ZMAGIC
	VBROADCASTSS LN2HI, ZLN2HI
	VBROADCASTSS LN2LO, ZLN2LO
	VBROADCASTSS C0, ZC0
	VBROADCASTSS C1, ZC1
	VBROADCASTSS C2, ZC2
	VBROADCASTSS C3, ZC3
	VBROADCASTSS C4, ZC4
	VBROADCASTSS C5, ZC5
	VBROADCASTSS ONE, ZONE
	VBROADCASTSS EXPLO, ZEXPLO
	VBROADCASTSS EXPHI, ZEXPHI
	VBROADCASTSS GELUC, ZGELUC
	VBROADCASTSS GELUK, ZGELUK
	XORQ AX, AX
gelu16:
	CMPQ    AX, CX
	JGE     gelu16done
	VMOVUPS (SI)(AX*4), Z5
	VADDPS  (DI)(AX*4), Z5, Z5 // x
	VMULPS  Z5, Z5, Z0
	VMULPS  Z5, Z0, Z0         // x³
	VMULPS  ZGELUC, Z0, Z0
	VADDPS  Z5, Z0, Z0
	VMULPS  ZGELUK, Z0, Z0     // −2u
	EXPFZ
	VADDPS  ZONE, Z0, Z0
	VDIVPS  Z0, Z5, Z5
	VMOVUPS Z5, (SI)(AX*4)
	ADDQ    $16, AX
	JMP     gelu16
gelu16done:
	VZEROUPPER
	RET

// func softmaxRow(row []float32)
//
// X5 = the row's max in all lanes, X6 = the four partial sums, X7 = the last
// len mod 4 elements extended with −Inf to a group (built, and written back,
// through the 16-byte frame), CX = elements in whole groups, DX = len mod 4.
TEXT ·softmaxRow(SB), NOSPLIT, $16-24
	MOVQ   row_base+0(FP), SI
	MOVQ   row_len+8(FP), CX
	MOVQ   CX, DX
	ANDQ   $3, DX
	SUBQ   DX, CX
	LEAQ   (SI)(CX*4), DI     // the tail's elements
	MOVAPS NEGINF, X7
	TESTQ  DX, DX
	JEQ    smax
	MOVUPS X7, tail-16(SP)
	XORQ   AX, AX
tailin:
	MOVL   (DI)(AX*4), R8
	MOVL   R8, tail-16(SP)(AX*4)
	INCQ   AX
	CMPQ   AX, DX
	JLT    tailin
	MOVUPS tail-16(SP), X7

smax:
	MOVAPS NEGINF, X1
	XORQ   AX, AX
max4:
	CMPQ   AX, CX
	JGE    maxfold
	MOVUPS (SI)(AX*4), X0
	MAXPS  X1, X0             // x > m ? x : m, so a NaN in x loses
	MOVAPS X0, X1
	ADDQ   $4, AX
	JMP    max4
maxfold:
	MOVAPS X7, X5
	MAXPS  X1, X5
	MOVAPS X5, X1
	SHUFPS $0x4e, X1, X1
	MAXPS  X1, X5
	MOVAPS X5, X1
	SHUFPS $0xb1, X1, X1
	MAXPS  X1, X5
	UCOMISS NEGINF, X5
	JNE    sexp
	XORQ   AX, AX             // empty or nothing but −Inf: all zeros
	ADDQ   DX, CX
zero:
	CMPQ   AX, CX
	JGE    done
	MOVL   $0, (SI)(AX*4)
	INCQ   AX
	JMP    zero

sexp:
	XORPS  X6, X6
	XORQ   AX, AX
exp4:
	CMPQ   AX, CX
	JGE    exptail
	MOVUPS (SI)(AX*4), X0
	SUBPS  X5, X0
	EXPF
	MOVUPS X0, (SI)(AX*4)
	ADDPS  X0, X6
	ADDQ   $4, AX
	JMP    exp4
exptail:
	TESTQ  DX, DX
	JEQ    sfold
	MOVAPS X7, X0
	SUBPS  X5, X0
	EXPF
	MOVAPS X0, X7
	ADDPS  X0, X6
sfold:
	MOVAPS X6, X0             // ((s0 + s1) + s2) + s3
	MOVAPS X6, X1
	SHUFPS $0x55, X1, X1
	ADDSS  X1, X0
	MOVAPS X6, X1
	SHUFPS $0xaa, X1, X1
	ADDSS  X1, X0
	SHUFPS $0xff, X6, X6
	ADDSS  X6, X0
	MOVSS  ONE, X1
	DIVSS  X0, X1
	SHUFPS $0, X1, X1         // 1/sum

	XORQ   AX, AX
scale4:
	CMPQ   AX, CX
	JGE    scaletail
	MOVUPS (SI)(AX*4), X0
	MULPS  X1, X0
	MOVUPS X0, (SI)(AX*4)
	ADDQ   $4, AX
	JMP    scale4
scaletail:
	TESTQ  DX, DX
	JEQ    done
	MULPS  X1, X7
	MOVUPS X7, tail-16(SP)
	XORQ   AX, AX
tailout:
	MOVL   tail-16(SP)(AX*4), R8
	MOVL   R8, (DI)(AX*4)
	INCQ   AX
	CMPQ   AX, DX
	JLT    tailout
done:
	RET
