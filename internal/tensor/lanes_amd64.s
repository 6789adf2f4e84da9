//go:build !purego

#include "textflag.h"

// The three binary16 slice conversions on the CPU's own converter:
// VCVTPH2PS and VCVTPS2PH (F16C on YMM, AVX-512F on ZMM), round to nearest
// even. F32ToF16Bits and F16BitsToF32 (fp16.go) state what a lane computes;
// the hardware computes the same on every input but a NaN, whose payload it
// keeps where the codec gives the quiet NaN of its sign. One masked step
// fixes that: decoding, a NaN lane keeps its sign, exponent and quiet bit
// (AND 0xffc00000); encoding and rounding, a NaN lane is made sign |
// 0x7fc00000 before VCVTPS2PH (AND 0xffc00000, then OR the quiet bit, or a
// signalling NaN with a short payload would become Inf).

DATA f16c<>+0(SB)/4, $0xffc00000 // KEEP: sign, exponent and quiet bit
DATA f16c<>+4(SB)/4, $0x00400000 // QUIET: the quiet bit
GLOBL f16c<>(SB), (NOPTR+RODATA), $8

// The NaN fix on sixteen lanes (Z0; K1 = the NaN lanes, Z14 = KEEP, Z13 =
// QUIET): DFIXZ for a decode, EFIXZ before an encode.
#define DFIXZ \
	VCMPPS $3, Z0, Z0, K1  \
	VPANDD Z14, Z0, K1, Z0

#define EFIXZ \
	VCMPPS $3, Z0, Z0, K1  \
	VPANDD Z14, Z0, K1, Z0 \
	VPORD  Z13, Z0, K1, Z0

// The same on eight lanes (Y0), with Y1 all ones in the NaN lanes.
#define DFIXY \
	VCMPPS  $3, Y0, Y0, Y1 \
	VANDNPS Y1, Y14, Y1    \
	VANDNPS Y0, Y1, Y0

#define EFIXY \
	VCMPPS  $3, Y0, Y0, Y1 \
	VANDPS  Y13, Y1, Y2    \
	VANDNPS Y1, Y14, Y1    \
	VANDNPS Y0, Y1, Y0     \
	VORPS   Y2, Y0, Y0

// One step of each conversion at element AX of src (SI) and dst (DI), on the
// lanes of V (Z0 or Y0; H is its low half).
#define DECODE(V, FIX) \
	VCVTPH2PS (SI)(AX*2), V \
	FIX                     \
	VMOVUPS   V, (DI)(AX*4)

#define ENCODE(V, FIX) \
	VMOVUPS   (SI)(AX*4), V \
	FIX                     \
	VCVTPS2PH $0, V, (DI)(AX*2)

#define ROUND(V, H, FIX) \
	VMOVUPS   (SI)(AX*4), V \
	FIX                     \
	VCVTPS2PH $0, V, H      \
	VCVTPH2PS H, V          \
	VMOVUPS   V, (DI)(AX*4)

// LANES runs Z sixteen elements at a time while wide is set and sixteen are
// left, then Y eight at a time, over len(dst) elements — a multiple of 8, and
// len(src) is the same. dst may be src.
#define LANES(Z, Y) \
	MOVQ         dst_base+0(FP), DI  \
	MOVQ         dst_len+8(FP), CX   \
	MOVQ         src_base+24(FP), SI \
	XORQ         AX, AX              \
	VBROADCASTSS f16c<>+0(SB), Y14   \
	VBROADCASTSS f16c<>+4(SB), Y13   \
	CMPB         wide+48(FP), $0     \
	JEQ          eight               \
	VBROADCASTSS f16c<>+0(SB), Z14   \
	VBROADCASTSS f16c<>+4(SB), Z13   \
	MOVQ         CX, DX              \
	ANDQ         $~15, DX            \
sixteen:                             \
	CMPQ         AX, DX              \
	JGE          eight               \
	Z                                \
	ADDQ         $16, AX             \
	JMP          sixteen             \
eight:                               \
	CMPQ         AX, CX              \
	JGE          done                \
	Y                                \
	ADDQ         $8, AX              \
	JMP          eight               \
done:                                \
	VZEROUPPER                       \
	RET

// func decodeF16C(dst []float32, src []uint16, wide bool)
TEXT ·decodeF16C(SB), NOSPLIT, $0-49
	LANES(DECODE(Z0, DFIXZ), DECODE(Y0, DFIXY))

// func encodeF16C(dst []uint16, src []float32, wide bool)
TEXT ·encodeF16C(SB), NOSPLIT, $0-49
	LANES(ENCODE(Z0, EFIXZ), ENCODE(Y0, EFIXY))

// func roundF16C(dst, src []float32, wide bool)
TEXT ·roundF16C(SB), NOSPLIT, $0-49
	LANES(ROUND(Z0, Y1, EFIXZ), ROUND(Y0, X1, EFIXY))
