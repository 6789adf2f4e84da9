package tensor

import (
	"math"
	"testing"
)

// checkLanes runs src through RoundF16Into (into a fresh destination and in
// place) and EncodeF16Slice, and the encoded halves through DecodeF16Slice,
// and holds every element to the scalar codec, F32ToF16Bits and
// F16BitsToF32 of it. On amd64 that is the converter body under test == Go
// twin == codec; under -tags purego the Go twin alone.
func checkLanes(t *testing.T, src []float32) {
	t.Helper()
	rounded := make([]float32, len(src))
	RoundF16Into(rounded, src)
	inPlace := append([]float32(nil), src...)
	RoundF16Into(inPlace, inPlace)
	enc := make([]uint16, len(src))
	EncodeF16Slice(enc, src)
	dec := make([]float32, len(src))
	DecodeF16Slice(dec, enc)
	twinR, twinE := make([]float32, len(src)), make([]uint16, len(src))
	roundF16Go(twinR, src)
	encodeF16Go(twinE, src)
	for i, v := range src {
		h := F32ToF16Bits(v)
		want := math.Float32bits(F16BitsToF32(h))
		u := math.Float32bits(v)
		if got := math.Float32bits(rounded[i]); got != want {
			t.Fatalf("RoundF16Into(%#08x) at %d of %d = %#08x, codec %#08x", u, i, len(src), got, want)
		}
		if got := math.Float32bits(inPlace[i]); got != want {
			t.Fatalf("RoundF16Into in place (%#08x) at %d of %d = %#08x, codec %#08x", u, i, len(src), got, want)
		}
		if got := math.Float32bits(twinR[i]); got != want {
			t.Fatalf("roundF16Go(%#08x) = %#08x, codec %#08x", u, got, want)
		}
		if enc[i] != h || twinE[i] != h {
			t.Fatalf("EncodeF16Slice(%#08x) at %d of %d = %#04x, Go twin %#04x, codec %#04x", u, i, len(src), enc[i], twinE[i], h)
		}
		if got := math.Float32bits(dec[i]); got != want {
			t.Fatalf("DecodeF16Slice(%#04x) at %d of %d = %#08x, codec %#08x", h, i, len(src), got, want)
		}
	}
}

// f16Body is one body of the slice conversions: use switches them to it.
type f16Body struct {
	name string
	use  func()
}

// eachF16Body runs f as a subtest once per conversion body this build and
// CPU have (f16Bodies), and leaves the conversions on the one the probe
// picked.
func eachF16Body(t *testing.T, f func(t *testing.T)) {
	bodies := f16Bodies()
	defer bodies[0].use()
	for _, body := range bodies {
		body.use()
		t.Run(body.name, f)
	}
}

// laneMantissas are the low 23 bits that matter to a rounding on 13 dropped
// bits: exact, just above, just below the tie, the tie with an even and with
// an odd kept bit, all dropped bits set, everything set (the carry into the
// exponent).
var laneMantissas = []uint32{0, 1, 0xfff, 0x1000, 0x1001, 0x1fff, 0x2000, 0x3000, 0x7fffff}

// TestF16LanesMatchCodec holds the three slice conversions to the scalar
// codec on every exponent × laneMantissas × both signs, each pattern in each
// of sixteen lane positions among in-range neighbours (so it alone needs the
// NaN fix, or does not) and among every other pattern's, on each body.
func TestF16LanesMatchCodec(t *testing.T) {
	var pats []float32
	for exp := uint32(0); exp <= 0xff; exp++ {
		for _, m := range laneMantissas {
			for _, sign := range []uint32{0, 0x80000000} {
				pats = append(pats, math.Float32frombits(sign|exp<<23|m))
			}
		}
	}
	// One pattern among fifteen ordinary lanes, at every position.
	var src []float32
	for _, p := range pats {
		for pos := 0; pos < 16; pos++ {
			g := [16]float32{1.5, -0.25, 0, 1000.25, 3, -7, 0.5, 2, 1.5, -0.25, 0, 1000.25, 3, -7, 0.5, 2}
			g[pos] = p
			src = append(src, g[:]...)
		}
	}
	eachF16Body(t, func(t *testing.T) {
		checkLanes(t, src)
		// The patterns back to back at every alignment of a vector: lanes
		// of every class share their vector with each other.
		for shift := 0; shift < 16; shift++ {
			checkLanes(t, pats[shift:])
		}
	})
}

// TestF16DecodeAllHalves holds DecodeF16Slice to F16BitsToF32 on all 65 536
// halves — NaN payloads included, where the converter needs its fix — at
// every alignment of a vector, on each body.
func TestF16DecodeAllHalves(t *testing.T) {
	src := make([]uint16, 1<<16+16)
	for i := range src {
		src[i] = uint16(i)
	}
	dst := make([]float32, len(src))
	eachF16Body(t, func(t *testing.T) {
		for shift := 0; shift < 16; shift++ {
			DecodeF16Slice(dst[shift:], src[shift:])
			for i, h := range src[shift:] {
				if got, want := math.Float32bits(dst[shift+i]), math.Float32bits(F16BitsToF32(h)); got != want {
					t.Fatalf("shift %d: DecodeF16Slice(%#04x) = %#08x, codec %#08x", shift, h, got, want)
				}
			}
		}
	})
}

// TestF16LanesLengthsAndOffsets covers every length 0…49 (the sixteen- and
// eight-lane loops against the element tail) on slices 0…3 elements off
// their allocation (no alignment is assumed), with a mix of ordinary and
// special values, and checks that nothing outside the destination is
// written, on each body.
func TestF16LanesLengthsAndOffsets(t *testing.T) {
	vals := RandN(7, 1, 56).Data()
	for i := range vals {
		switch i % 5 {
		case 1:
			vals[i] *= 1e-6 // a subnormal half
		case 3:
			vals[i] *= 1e6 // rounds to Inf
		}
	}
	vals[11], vals[22], vals[37] = float32(math.NaN()), float32(math.Inf(-1)), math.Float32frombits(0xff800001)
	const canary = 0x5a5a
	eachF16Body(t, func(t *testing.T) {
		for n := 0; n <= 49; n++ {
			for off := 0; off < 4; off++ {
				src := vals[off : off+n]
				checkLanes(t, src)

				dstF := make([]float32, off+n+1)
				dstH := make([]uint16, off+n+1)
				dstD := make([]float32, off+n+1)
				for i := range dstF {
					dstF[i], dstH[i], dstD[i] = canary, canary, canary
				}
				RoundF16Into(dstF[off:off+n], src)
				EncodeF16Slice(dstH[off:off+n], src)
				DecodeF16Slice(dstD[off:off+n], dstH[off:off+n])
				for i := range dstF {
					if (i < off || i >= off+n) && (dstF[i] != canary || dstH[i] != canary || dstD[i] != canary) {
						t.Fatalf("n=%d off=%d: wrote outside the destination at %d", n, off, i)
					}
				}
			}
		}
	})
}

// TestF16ConversionsDoNotAllocate pins 0 allocs/op on the three slice
// conversions the decode step calls.
func TestF16ConversionsDoNotAllocate(t *testing.T) {
	src := RandN(9, 1, 131).Data()
	dst, enc := make([]float32, len(src)), make([]uint16, len(src))
	if a := testing.AllocsPerRun(20, func() {
		RoundF16Into(dst, src)
		EncodeF16Slice(enc, src)
		DecodeF16Slice(dst, enc)
	}); a != 0 {
		t.Fatalf("%v allocs per round + encode + decode, want 0", a)
	}
}

// activationMix is the benchmarks' input: mostly normal-range values, a tail
// of small probabilities that land in the half-denormal range, and exact
// zeros.
func activationMix() []float32 {
	src := RandN(5, 1, 1<<14).Data()
	for i := range src {
		switch i % 8 {
		case 6:
			src[i] *= 1e-6 // denormal as a half
		case 7:
			src[i] = 0
		}
	}
	return src
}

// benchElems runs fn over n elements per iteration on each conversion body
// this CPU has, as sub-benchmarks named after the body, and reports
// ns/element.
func benchElems(b *testing.B, n int, fn func()) {
	bodies := f16Bodies()
	defer bodies[0].use()
	for _, body := range bodies {
		b.Run(body.name, func(b *testing.B) {
			body.use()
			b.ReportAllocs()
			for b.Loop() {
				fn()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
		})
	}
}

// BenchmarkRoundSliceF16 times the fp16 route's one conversion on the
// activation mix and on values that are all in the normal half range.
func BenchmarkRoundSliceF16(b *testing.B) {
	for _, c := range []struct {
		name string
		src  []float32
	}{{"mix", activationMix()}, {"normal", RandN(5, 1, 1<<14).Data()}} {
		b.Run(c.name, func(b *testing.B) {
			dst := make([]float32, len(c.src))
			benchElems(b, len(c.src), func() { RoundF16Into(dst, c.src) })
		})
	}
}

// BenchmarkEncodeF16Slice and BenchmarkDecodeF16Slice sit beside it, so the
// numbers DESIGN.md §2d records for the converter bodies stay re-checkable:
// ns/element and 0 allocs/op on each body this CPU has (the sub-benchmark
// names end in the body), against -tags purego for the Go twins.
func BenchmarkEncodeF16Slice(b *testing.B) {
	src := activationMix()
	dst := make([]uint16, len(src))
	benchElems(b, len(src), func() { EncodeF16Slice(dst, src) })
}

func BenchmarkDecodeF16Slice(b *testing.B) {
	src := make([]uint16, 1<<14)
	EncodeF16Slice(src, activationMix())
	dst := make([]float32, len(src))
	benchElems(b, len(src), func() { DecodeF16Slice(dst, src) })
}
