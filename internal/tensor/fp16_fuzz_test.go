package tensor

import (
	"math"
	"testing"
)

// f16Next returns the next representable binary16 bit pattern above h in
// value order (within one sign, monotone in the bit pattern for positives).
func f16Next(h uint16) uint16 { return h + 1 }

// TestF16TiesRoundToNearestEven pins the tie-breaking rule on the 13 dropped
// mantissa bits: an exactly-halfway value must round to the neighbour with
// the even (LSB-zero) half mantissa, in both directions.
func TestF16TiesRoundToNearestEven(t *testing.T) {
	ulp := float32(math.Ldexp(1, -10)) // half ULP spacing at 1.0 ≤ x < 2
	cases := []struct {
		x    float32
		want uint16
		why  string
	}{
		{1 + ulp/2, 0x3c00, "tie between 0x3c00 and 0x3c01 → even 0x3c00"},
		{1 + ulp + ulp/2, 0x3c02, "tie between 0x3c01 and 0x3c02 → even 0x3c02"},
		{1 + 2*ulp + ulp/2, 0x3c02, "tie between 0x3c02 and 0x3c03 → even 0x3c02"},
		{-(1 + ulp/2), 0xbc00, "negative tie mirrors the positive rule"},
		// Just off the tie in each direction must round to nearest, not even.
		{1 + ulp/2 + ulp/1024, 0x3c01, "barely above the tie rounds up"},
		{1 + ulp/2 - ulp/1024, 0x3c00, "barely below the tie rounds down"},
	}
	for _, c := range cases {
		if got := F32ToF16Bits(c.x); got != c.want {
			t.Errorf("F32ToF16Bits(%.10g) = %#04x, want %#04x (%s)", c.x, got, c.want, c.why)
		}
	}
}

// TestF16ExponentCarry covers round-ups that overflow the half mantissa: the
// +1 must carry into the exponent field (2-ε → 2), across the
// denormal/normal boundary, and past the largest finite half into infinity.
func TestF16ExponentCarry(t *testing.T) {
	// 2 - 2^-12 has all-ones half mantissa at exponent 0; rounding up carries
	// to mantissa zero at exponent 1, i.e. exactly 2.0.
	almostTwo := float32(2 - math.Ldexp(1, -12))
	if got := F32ToF16Bits(almostTwo); got != 0x4000 {
		t.Errorf("F32ToF16Bits(2-2^-12) = %#04x, want 0x4000 (carry into exponent)", got)
	}
	// Largest denormal is (1023/1024)·2^-14 (0x03ff); halfway to the smallest
	// normal 2^-14 must carry across the denormal/normal boundary.
	boundary := float32((1023.5 / 1024) * math.Ldexp(1, -14))
	if got := F32ToF16Bits(boundary); got != 0x0400 {
		t.Errorf("F32ToF16Bits(denormal boundary) = %#04x, want 0x0400", got)
	}
	// 65520 is halfway between 65504 (max finite) and 65536; RNE picks the
	// even mantissa, which after the carry is infinity.
	if got := F32ToF16Bits(65520); got != 0x7c00 {
		t.Errorf("F32ToF16Bits(65520) = %#04x, want 0x7c00 (carry past max exponent)", got)
	}
	// Just below the halfway point stays finite.
	if got := F32ToF16Bits(65519.996); got != 0x7bff {
		t.Errorf("F32ToF16Bits(65519.996) = %#04x, want 0x7bff", got)
	}
}

// TestF16DenormalTies pins RNE inside the denormal range, where the dropped-
// bit count varies with the exponent.
func TestF16DenormalTies(t *testing.T) {
	tiny := math.Ldexp(1, -24) // one denormal ULP
	cases := []struct {
		x    float64
		want uint16
	}{
		{tiny / 2, 0x0000},     // tie between 0 and 1 ulp → even 0
		{tiny * 1.5, 0x0002},   // tie between 1 and 2 ulp → even 2
		{tiny * 2.5, 0x0002},   // tie between 2 and 3 ulp → even 2
		{-tiny / 2, 0x8000},    // signed zero preserved through the tie
		{tiny * 1.501, 0x0002}, // off-tie rounds to nearest
		{tiny * 1.499, 0x0001},
	}
	for _, c := range cases {
		if got := F32ToF16Bits(float32(c.x)); got != c.want {
			t.Errorf("F32ToF16Bits(%g) = %#04x, want %#04x", c.x, got, c.want)
		}
	}
}

// TestF16SliceCodecMatchesScalar pins the slice codec to the scalar
// conversions: encode is F32ToF16Bits elementwise, and decode∘encode is
// RoundSliceF16 bit for bit (the identity the fp16 GEMM route relies on).
func TestF16SliceCodecMatchesScalar(t *testing.T) {
	src := RandN(11, 3, 257).Data()
	src = append(src, 0, float32(math.Inf(1)), float32(math.Inf(-1)),
		65504, -65504, 65520, float32(math.Ldexp(1, -24)), float32(math.Ldexp(1, -25)))
	enc := make([]uint16, len(src))
	EncodeF16Slice(enc, src)
	for i, v := range src {
		if enc[i] != F32ToF16Bits(v) {
			t.Fatalf("EncodeF16Slice[%d] = %#04x, scalar %#04x", i, enc[i], F32ToF16Bits(v))
		}
	}
	dec := make([]float32, len(src))
	DecodeF16Slice(dec, enc)
	rounded := append([]float32(nil), src...)
	RoundSliceF16(rounded)
	for i := range dec {
		if math.Float32bits(dec[i]) != math.Float32bits(rounded[i]) {
			t.Fatalf("decode∘encode diverges from RoundF16 at %d: %x vs %x",
				i, math.Float32bits(dec[i]), math.Float32bits(rounded[i]))
		}
	}
}

// roundedBits runs one value through the slice rounding kernel, in place and
// into a separate destination, and returns the (agreeing) result bits.
func roundedBits(x float32) uint32 {
	in := [1]float32{x}
	var out [1]float32
	RoundF16Into(out[:], in[:])
	RoundSliceF16(in[:])
	if math.Float32bits(in[0]) != math.Float32bits(out[0]) {
		panic("RoundSliceF16 and RoundF16Into disagree")
	}
	return math.Float32bits(out[0])
}

// TestRoundSliceF16MatchesCodecExhaustive pins the rounding kernel to the
// codec, F16BitsToF32∘F32ToF16Bits, bit for bit on every input class where
// the two could part: all 65 536 half values, each one's two float32
// neighbours, both midpoints to the adjacent halves and THEIR neighbours
// (ties and just-off ties), every power of two from 2⁻²⁷ to 2¹⁷ with its
// neighbours, the overflow threshold, denormals, ±0, ±Inf and NaN payloads.
func TestRoundSliceF16MatchesCodecExhaustive(t *testing.T) {
	var inputs []uint32
	around := func(u uint32) { inputs = append(inputs, u-1, u, u+1) }
	for h := 0; h < 1<<16; h++ {
		v := F16BitsToF32(uint16(h))
		u := math.Float32bits(v)
		around(u)
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			continue
		}
		// Midpoints to the next half away from and toward zero, computed in
		// float64 (exact: halves carry 11 significant bits).
		mag := uint16(h) & 0x7fff
		sign := u & 0x80000000
		for _, nb := range []uint16{mag + 1, mag - 1} {
			if nb > 0x7c00 { // mag-1 wrapped below zero, or past Inf
				continue
			}
			other := float64(65536) // the value Inf's slot would hold
			if nb != 0x7c00 {
				other = float64(F16BitsToF32(nb))
			}
			mid := float32((float64(F16BitsToF32(mag)) + other) / 2)
			around(sign | math.Float32bits(mid))
		}
	}
	for e := -27; e <= 17; e++ {
		p := math.Float32bits(float32(math.Ldexp(1, e)))
		around(p)
		around(p | 0x80000000)
	}
	for _, u := range []uint32{
		0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007fffff, 0x00800000, // ±0, float32 denormals
		0x477fe000, 0x477fefff, 0x477ff000, 0x477ff001, 0xc77ff000, // 65504 … 65520
		0x7f7fffff, 0xff7fffff, 0x7f800000, 0xff800000, // max float32, ±Inf
		0x7f800001, 0x7fc00000, 0x7fc00001, 0x7fffffff, 0xff800001, 0xffc12345, // NaN payloads
	} {
		around(u)
	}

	src := make([]float32, len(inputs))
	for i, u := range inputs {
		src[i] = math.Float32frombits(u)
	}
	dst := make([]float32, len(src))
	RoundF16Into(dst, src)
	inPlace := append([]float32(nil), src...)
	RoundSliceF16(inPlace)
	for i, u := range inputs {
		want := math.Float32bits(F16BitsToF32(F32ToF16Bits(src[i])))
		if got := math.Float32bits(dst[i]); got != want {
			t.Fatalf("RoundF16Into(%#08x = %g) = %#08x, codec gives %#08x", u, src[i], got, want)
		}
		if got := math.Float32bits(inPlace[i]); got != want {
			t.Fatalf("RoundSliceF16(%#08x = %g) = %#08x, codec gives %#08x", u, src[i], got, want)
		}
	}
	t.Logf("%d inputs bit-identical", len(inputs))
}

// FuzzF16RoundTrip fuzzes the conversion pair over raw float32 bit patterns
// with oracle-free invariants: NaN/Inf preservation, and for finite inputs
// that RoundF16(x) is the NEAREST representable binary16 neighbour of x with
// ties broken to the even mantissa.
func FuzzF16RoundTrip(f *testing.F) {
	seeds := []uint32{
		0x00000000, 0x80000000, // ±0
		0x3f800000, 0xbf800000, // ±1
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00001, 0xffc00000, // NaNs
		0x477fe000, 0x477ff000, // 65504, 65520 (max-finite, overflow tie)
		0x38800000, 0x33800000, // 2^-14 (min normal), 2^-24 (min denormal)
		0x33000000, 0x34000000, // 2^-25 (underflow tie), 2^-23
		0x3f801000, 0x3f803000, // RNE ties at 1+2^-11, 1+3·2^-11
		0x3ffff000, 0x40000000, // exponent-carry at 2-2^-12, 2
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, bits uint32) {
		x := math.Float32frombits(bits)
		h := F32ToF16Bits(x)
		r := F16BitsToF32(h)

		// The slice kernel's bit-domain fast paths must agree with the codec
		// on every input, in place and out of place.
		if got := roundedBits(x); got != math.Float32bits(r) {
			t.Fatalf("RoundSliceF16(%#08x) = %#08x, codec gives %#08x", bits, got, math.Float32bits(r))
		}

		switch {
		case math.IsNaN(float64(x)):
			if !math.IsNaN(float64(r)) {
				t.Fatalf("NaN %#08x not preserved: %#04x → %g", bits, h, r)
			}
			return
		case math.IsInf(float64(x), 0):
			if float64(r) != float64(x) {
				t.Fatalf("Inf %g not preserved: %#04x → %g", x, h, r)
			}
			return
		}

		// Idempotence: the rounded value re-encodes to the same bits (modulo
		// the two zero encodings).
		if h2 := F32ToF16Bits(r); h2 != h && !(r == 0 && h2&0x7fff == 0 && h&0x7fff == 0) {
			t.Fatalf("round trip not idempotent: %g → %#04x → %g → %#04x", x, h, r, h2)
		}

		// Sign preservation (including signed zero and underflow-to-zero).
		if math.Signbit(float64(x)) != (h&0x8000 != 0) {
			t.Fatalf("sign of %g lost in %#04x", x, h)
		}

		ax := math.Abs(float64(x))
		if ax >= 65520 {
			// At and past the overflow tie, RNE saturates to infinity.
			if h&0x7fff != 0x7c00 {
				t.Fatalf("|%g| ≥ 65520 must round to Inf, got %#04x", x, h)
			}
			return
		}
		if math.IsInf(float64(r), 0) {
			t.Fatalf("|%g| < 65520 rounded to Inf", x)
		}

		// Nearest-neighbour property on the magnitude lattice: no other
		// binary16 value is strictly closer, and exact ties land on an even
		// mantissa.
		mag := h & 0x7fff
		err := math.Abs(float64(r) - ax)
		if h&0x8000 != 0 {
			err = math.Abs(float64(r) + ax) // compare magnitudes
		}
		check := func(nb uint16) {
			alt := math.Abs(float64(F16BitsToF32(nb)))
			altErr := math.Abs(alt - ax)
			if altErr < err {
				t.Fatalf("%g: %#04x (err %g) is not nearest, %#04x err %g", x, h, err, nb, altErr)
			}
			if altErr == err && alt != math.Abs(float64(r)) && mag&1 != 0 {
				t.Fatalf("%g: tie broken to odd mantissa %#04x over %#04x", x, h, nb)
			}
		}
		if mag > 0 {
			check(h - 1) // one step toward zero, same sign
		}
		if mag < 0x7bff {
			check(f16Next(h)) // one step away from zero
		}
	})
}
