package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func TestF16KnownValues(t *testing.T) {
	cases := map[float32]uint16{
		0:              0x0000,
		1:              0x3c00,
		-1:             0xbc00,
		0.5:            0x3800,
		2:              0x4000,
		65504:          0x7bff, // max half
		-65504:         0xfbff,
		0.000061035156: 0x0400, // smallest normal half (2^-14)
	}
	for f, want := range cases {
		if got := F32ToF16Bits(f); got != want {
			t.Fatalf("F32ToF16Bits(%g) = %#04x, want %#04x", f, got, want)
		}
		if back := F16BitsToF32(want); back != f {
			t.Fatalf("F16BitsToF32(%#04x) = %g, want %g", want, back, f)
		}
	}
}

func TestF16SpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	if F32ToF16Bits(inf) != 0x7c00 || F32ToF16Bits(-inf) != 0xfc00 {
		t.Fatal("infinity conversion")
	}
	if !math.IsInf(float64(F16BitsToF32(0x7c00)), 1) {
		t.Fatal("infinity round trip")
	}
	nan := float32(math.NaN())
	if h := F32ToF16Bits(nan); h&0x7c00 != 0x7c00 || h&0x3ff == 0 {
		t.Fatalf("NaN bits: %#04x", h)
	}
	if !math.IsNaN(float64(F16BitsToF32(0x7e00))) {
		t.Fatal("NaN round trip")
	}
	// Overflow rounds to infinity.
	if F32ToF16Bits(1e6) != 0x7c00 {
		t.Fatal("overflow should saturate to Inf")
	}
	// Tiny values underflow to zero with sign preserved.
	if F32ToF16Bits(1e-10) != 0 || F32ToF16Bits(-1e-10) != 0x8000 {
		t.Fatal("underflow to signed zero")
	}
}

func TestF16Denormals(t *testing.T) {
	// Smallest positive half denormal: 2^-24.
	tiny := float32(math.Ldexp(1, -24))
	if got := F32ToF16Bits(tiny); got != 0x0001 {
		t.Fatalf("denormal bits: %#04x", got)
	}
	if back := F16BitsToF32(0x0001); back != tiny {
		t.Fatalf("denormal round trip: %g vs %g", back, tiny)
	}
	// A mid-range denormal round-trips exactly.
	mid := float32(math.Ldexp(3, -24))
	if RoundF16(mid) != mid {
		t.Fatalf("denormal %g not preserved: %g", mid, RoundF16(mid))
	}
}

// Property: round-tripping a half-representable value is the identity.
func TestQuickF16RoundTripIdempotent(t *testing.T) {
	f := func(bits uint16) bool {
		// Skip NaNs: they round-trip to a canonical quiet NaN.
		v := F16BitsToF32(bits)
		if math.IsNaN(float64(v)) {
			return true
		}
		return F32ToF16Bits(v) == bits || (v == 0 && bits&0x7fff == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: relative rounding error of normal-range values is within the
// half-precision epsilon (2^-11).
func TestQuickF16RelativeError(t *testing.T) {
	f := func(seed int64) bool {
		x := RandN(seed, 1, 64)
		for _, v := range x.Data() {
			if v == 0 {
				continue
			}
			av := math.Abs(float64(v))
			if av < 6.2e-5 || av > 65000 {
				continue // outside the normal half range
			}
			rel := math.Abs(float64(RoundF16(v))-float64(v)) / av
			if rel > 1.0/2048 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundedF16Tensor(t *testing.T) {
	x := RandN(3, 1, 32)
	r := x.RoundedF16()
	if x.MaxAbsDiff(r) == 0 {
		t.Fatal("rounding should perturb random normals")
	}
	if !testutil.AllClose(r.Data(), x.Data(), 1e-3, 1e-4) {
		t.Fatalf("rounding error too large: %g", r.MaxAbsDiff(x))
	}
	// Original untouched.
	again := x.RoundedF16()
	if again.MaxAbsDiff(r) != 0 {
		t.Fatal("RoundedF16 must not mutate the source")
	}
}
