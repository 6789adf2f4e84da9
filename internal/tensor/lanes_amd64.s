//go:build !purego

#include "textflag.h"

// SSE2 bodies of the two binary16 conversions that are compute-bound;
// roundF16Go and F32ToF16Bits (fp16.go) state what a lane computes. Baseline
// amd64 only — integer lane ops on the float32 bits, one ADDPS/SUBPS pair for
// the subnormal halves. No F16C, no AVX, no CPUID. The decode has no body
// here: it is a table look-up (DecodeF16Slice).

// Every constant in all four lanes. They are used as memory operands, which
// must be 16-byte aligned: the linker aligns a data symbol of 32 bytes or more
// to 32.
#define LANES4(off, v) \
	DATA f16k<>+off(SB)/8, v \
	DATA f16k<>+(off+8)(SB)/8, v
#define ABS     f16k<>+0(SB)
#define MINM1   f16k<>+16(SB)
#define TOINFM1 f16k<>+32(SB)
#define ONE     f16k<>+48(SB)
#define HALFM1  f16k<>+64(SB)
#define KEEP    f16k<>+80(SB)
#define HALF    f16k<>+96(SB)
#define INF     f16k<>+112(SB)
#define QBIT    f16k<>+128(SB)
#define REBIAS  f16k<>+144(SB)
#define HINF    f16k<>+160(SB)
#define HQBIT   f16k<>+176(SB)
LANES4(0, $0x7fffffff7fffffff)   // ABS: everything but the sign
LANES4(16, $0x387fffff387fffff)  // MINM1: f16MinNormalBits − 1
LANES4(32, $0x477fefff477fefff)  // TOINFM1: f16ToInfBits − 1
LANES4(48, $0x0000000100000001)  // ONE
LANES4(64, $0x00000fff00000fff)  // HALFM1: half an ulp of the half, less one
LANES4(80, $0xffffe000ffffe000)  // KEEP: the bits a half keeps
LANES4(96, $0x3f0000003f000000)  // HALF: 0.5
LANES4(112, $0x7f8000007f800000) // INF
LANES4(128, $0x0040000000400000) // QBIT: INF | QBIT is the quiet NaN
LANES4(144, $0x0001c0000001c000) // REBIAS: (127 − 15) << 10
LANES4(160, $0x00007c0000007c00) // HINF: the half's Inf
LANES4(176, $0x0000020000000200) // HQBIT: HINF | HQBIT is the half's quiet NaN
GLOBL f16k<>(SB), (NOPTR+RODATA), $192

// CLASS sorts the four float32 in X0: X1 = |x| bits, X2 = all ones where
// |x| ≥ 2⁻¹⁴, X3 = all ones where |x| rounds to Inf or is Inf or NaN, X4 = in
// the normal half range (X2 and not X3), R8 = 0xffff iff every lane is in
// that range or zero. |x| has no sign bit, so the signed compares order it.
#define CLASS \
	MOVO     X0, X1      \
	PAND     ABS, X1     \
	MOVO     X1, X2      \
	PCMPGTL  MINM1, X2   \
	MOVO     X1, X3      \
	PCMPGTL  TOINFM1, X3 \
	MOVO     X3, X4      \
	PANDN    X2, X4      \
	PXOR     X5, X5      \
	PCMPEQL  X1, X5      \
	POR      X4, X5      \
	PMOVMSKB X5, R8

// NEAREST: to = from + 0xfff + bit 13 of from. What is left above bit 12 is
// from rounded to nearest even on its 13 low bits; a carry out of the
// mantissa bumps the exponent.
#define NEAREST(from, to) \
	MOVO  from, to   \
	PSRLL $13, to    \
	PAND  ONE, to    \
	PADDL HALFM1, to \
	PADDL from, to

// SPECIAL(inf, qbit): X1 = inf in the lanes X3 marks, inf | qbit where |x| is
// a NaN, zero elsewhere.
#define SPECIAL(inf, qbit) \
	PCMPGTL INF, X1  \
	PAND    qbit, X1 \
	POR     inf, X1  \
	PAND    X3, X1

// func roundF16Lanes(dst, src []float32)
TEXT ·roundF16Lanes(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	XORQ AX, AX
round4:
	CMPQ   AX, CX
	JGE    rounddone
	MOVOU  (SI)(AX*4), X0
	CLASS
	CMPL   R8, $0xffff
	JNE    roundblend
	NEAREST(X0, X5)           // the sign rides along: nothing carries into it
	PAND   KEEP, X5
	MOVOU  X5, (DI)(AX*4)
	ADDQ   $4, AX
	JMP    round4
roundblend:
	PXOR   X1, X0             // the sign
	NEAREST(X1, X5)
	PAND   KEEP, X5
	PAND   X4, X5
	POR    X5, X0             // normal halves
	MOVO   X1, X5             // below 2⁻¹⁴ the half's ulp is 2⁻²⁴, float32's own in
	ADDPS  HALF, X5           // [0.5, 1): the add rounds |x| to it and
	SUBPS  HALF, X5           // (|x| + 0.5) − 0.5 is exact
	PANDN  X5, X2
	POR    X2, X0             // subnormal halves
	SPECIAL(INF, QBIT)
	POR    X1, X0             // ±Inf and NaN
	MOVOU  X0, (DI)(AX*4)
	ADDQ   $4, AX
	JMP    round4
rounddone:
	RET

// PACK stores the four halves X5 holds as dwords under the signs of X0: the
// sign smeared over the top 17 bits makes the dword the sign extension of the
// half, which is what PACKSSLW's signed saturation passes through unchanged.
#define PACK \
	PSRAL    $31, X0 \
	PSLLL    $15, X0 \
	POR      X5, X0  \
	PACKSSLW X0, X0  \
	MOVQ     X0, (DI)(AX*2)

// func encodeF16Lanes(dst []uint16, src []float32)
TEXT ·encodeF16Lanes(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	XORQ AX, AX
encode4:
	CMPQ   AX, CX
	JGE    encodedone
	MOVOU  (SI)(AX*4), X0
	CLASS
	NEAREST(X1, X5)
	PSRLL  $13, X5
	PSUBL  REBIAS, X5
	PAND   X4, X5             // normal halves; a zero's lane is cleared
	CMPL   R8, $0xffff
	JEQ    encodepack
	MOVO   X1, X6
	ADDPS  HALF, X6
	PSUBL  HALF, X6           // bits(|x| + 0.5) − bits(0.5): |x| in units of 2⁻²⁴
	PANDN  X6, X2
	POR    X2, X5             // subnormal halves
	SPECIAL(HINF, HQBIT)
	POR    X1, X5             // ±Inf and NaN
encodepack:
	PACK
	ADDQ   $4, AX
	JMP    encode4
encodedone:
	RET
