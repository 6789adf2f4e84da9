package tensor

import (
	"math"
	"sync"
)

// IEEE 754 binary16 conversion, used to emulate the Turbo-TC path: Tensor
// Cores consume FP16 inputs and accumulate in FP32, so rounding operands
// through binary16 before an FP32-accumulated GEMM reproduces the numeric
// behaviour the paper calls "minimal and acceptable precision loss"
// (§6.2.1) — and lets tests quantify that loss.

// F32ToF16Bits converts a float32 to binary16 bits with round-to-nearest-
// even, handling denormals, overflow to infinity, and NaN.
func F32ToF16Bits(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23) & 0xff
	frac := bits & 0x7fffff

	switch {
	case exp == 0xff: // Inf or NaN
		if frac != 0 {
			return sign | 0x7e00 // quiet NaN
		}
		return sign | 0x7c00 // Inf
	case exp > 142: // overflow (unbiased > 15): round to Inf
		return sign | 0x7c00
	case exp >= 113: // normal half range (unbiased -14..15)
		halfExp := uint16(exp-112) << 10
		halfFrac := uint16(frac >> 13)
		// Round to nearest even on the 13 dropped bits.
		round := frac & 0x1fff
		if round > 0x1000 || (round == 0x1000 && halfFrac&1 == 1) {
			return sign | (halfExp + halfFrac + 1) // carry may bump the exponent: still correct
		}
		return sign | halfExp | halfFrac
	case exp >= 102: // denormal half (exp 102 can still round up to 2⁻²⁴)
		// Implicit leading 1 becomes explicit; half denormals represent
		// mant × 2^(exp-126) in units of 2⁻²⁴.
		mant := frac | 0x800000
		s := uint32(126) - uint32(exp) // 14..24
		halfFrac := uint16(mant >> s)
		rem := mant & ((uint32(1) << s) - 1)
		half := uint32(1) << (s - 1)
		if rem > half || (rem == half && halfFrac&1 == 1) {
			halfFrac++
		}
		return sign | halfFrac
	default: // underflow to signed zero
		return sign
	}
}

// F16BitsToF32 converts binary16 bits back to float32.
func F16BitsToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	frac := uint32(h & 0x3ff)

	switch {
	case exp == 0x1f: // Inf or NaN
		if frac != 0 {
			return math.Float32frombits(sign | 0x7fc00000)
		}
		return math.Float32frombits(sign | 0x7f800000)
	case exp == 0: // zero or denormal
		if frac == 0 {
			return math.Float32frombits(sign)
		}
		// Normalise the denormal.
		e := uint32(113)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		frac &= 0x3ff
		return math.Float32frombits(sign | (e << 23) | (frac << 13))
	default:
		return math.Float32frombits(sign | ((exp + 112) << 23) | (frac << 13))
	}
}

// RoundF16 returns x rounded through binary16 (the value a Tensor Core
// would actually read).
func RoundF16(x float32) float32 {
	return F16BitsToF32(F32ToF16Bits(x))
}

// RoundSliceF16 rounds every element through binary16 in place.
func RoundSliceF16(x []float32) { RoundF16Into(x, x) }

// Float32 bit patterns that bound RoundF16Into's fast paths.
const (
	f16MinNormalBits = 0x38800000 // 2⁻¹⁴, the smallest normal half
	f16ToInfBits     = 0x477ff000 // 65520, the first magnitude that rounds to +Inf
)

// RoundF16Into writes src rounded through binary16 into dst (which may be
// src itself, and must otherwise not overlap it): dst[i] =
// F16BitsToF32(F32ToF16Bits(src[i])) bit for bit, but without materialising
// the half. This is the fp16 route's one conversion: a value rounds once where
// it is produced and every GEMM that consumes it runs the plain fp32 kernels
// on the result.
//
// In the normal half range the rounding is round-to-nearest-even on the 13
// dropped mantissa bits, done on the float32 bits (a carry out of the
// mantissa bumps the exponent, which is still the right answer below
// 65520). Below 2⁻¹⁴ the half is denormal, a multiple of 2⁻²⁴; adding 0.5
// lands the value in [0.5, 1), where float32's own ulp is 2⁻²⁴, so the FPU's
// round-to-nearest-even does the work and subtracting 0.5 is exact. From
// 65520 up the result is ±Inf, and a NaN is the quiet NaN of its sign.
//
// Whole groups of four go through roundF16Lanes (SSE2 on amd64, roundF16Go
// everywhere else and under -tags purego), the last len mod 4 elements
// through roundF16Go; the build constraint is the only fork.
func RoundF16Into(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: RoundF16Into length mismatch")
	}
	n := len(src) &^ 3
	roundF16Lanes(dst[:n], src[:n])
	roundF16Go(dst[n:], src[n:])
}

// roundF16Go is RoundF16Into an element at a time: what roundF16Lanes is held
// to, bit for bit.
func roundF16Go(dst, src []float32) {
	for i, v := range src {
		u := math.Float32bits(v)
		sign, abs := u&0x80000000, u&0x7fffffff
		switch {
		case abs-f16MinNormalBits < f16ToInfBits-f16MinNormalBits:
			abs += 0xfff + (abs>>13)&1
			dst[i] = math.Float32frombits(sign | abs&^0x1fff)
		case abs < f16MinNormalBits:
			r := float32(math.Float32frombits(abs)+0.5) - 0.5
			dst[i] = math.Float32frombits(sign | math.Float32bits(r))
		default:
			dst[i] = RoundF16(v)
		}
	}
}

// RoundedF16 returns a new tensor with every element rounded through
// binary16, leaving t untouched.
func (t *Tensor) RoundedF16() *Tensor {
	c := New(t.shape...)
	c.name = t.name
	RoundF16Into(c.data, t.data)
	return c
}

// f16DecodeTable maps every binary16 bit pattern to its float32 value. At
// 65536 entries (256 KiB) it turns the branchy F16BitsToF32 into one load,
// which matters on the fp16 fast path: every GEMM decodes its binary16
// operands into fp32 scratch before accumulating.
var (
	f16DecodeOnce  sync.Once
	f16DecodeTable []float32
)

func f16Table() []float32 {
	f16DecodeOnce.Do(func() {
		f16DecodeTable = make([]float32, 1<<16)
		for h := 0; h < 1<<16; h++ {
			f16DecodeTable[h] = F16BitsToF32(uint16(h))
		}
	})
	return f16DecodeTable
}

// EncodeF16Slice rounds src through binary16 and stores the bit patterns in
// dst (round-to-nearest-even, the Tensor Core load conversion). dst and src
// must have equal length. Split over encodeF16Lanes and encodeF16Go the way
// RoundF16Into is.
func EncodeF16Slice(dst []uint16, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: EncodeF16Slice length mismatch")
	}
	n := len(src) &^ 3
	encodeF16Lanes(dst[:n], src[:n])
	encodeF16Go(dst[n:], src[n:])
}

// encodeF16Go is EncodeF16Slice an element at a time.
func encodeF16Go(dst []uint16, src []float32) {
	for i, v := range src {
		dst[i] = F32ToF16Bits(v)
	}
}

// DecodeF16Slice expands binary16 bit patterns into float32 values. Because
// every binary16 value is exactly representable in float32,
// DecodeF16Slice∘EncodeF16Slice equals RoundSliceF16 bit for bit — the
// identity the fp16 GEMM route's bit-exactness tests pin. Unlike the two
// conversions above it has no lanes: a look-up in the warm table is one load
// per element, and the shortest exact four-lane SSE2 sequence was measured
// nearly twice as slow (DESIGN.md §2d; BenchmarkDecodeF16Slice keeps the
// number re-checkable).
func DecodeF16Slice(dst []float32, src []uint16) {
	if len(dst) != len(src) {
		panic("tensor: DecodeF16Slice length mismatch")
	}
	table := f16Table()
	for i, h := range src {
		dst[i] = table[h]
	}
}
