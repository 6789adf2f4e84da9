package blas

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func encoded(src []float32) Half {
	h := make(Half, len(src))
	tensor.EncodeF16Slice(h, src)
	return h
}

func roundedCopy(src []float32) []float32 {
	c := append([]float32(nil), src...)
	tensor.RoundSliceF16(c)
	return c
}

func bitsEqual(t *testing.T, got, want []float32, what string) {
	t.Helper()
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d differs: %g (%#08x) vs %g (%#08x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestGemmF16BitIdenticalToRoundedGemm pins the route's foundational
// property: GemmF16 over encoded operands equals Gemm over the same operands
// rounded through binary16, bit for bit, across both B layouts, padded
// leading dimensions, and nonzero alpha/beta.
func TestGemmF16BitIdenticalToRoundedGemm(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cases := []struct {
		transB        bool
		m, n, k       int
		lda, ldb, ldc int
		alpha, beta   float32
	}{
		{false, 5, 7, 9, 9, 7, 7, 1, 0},
		{true, 4, 6, 8, 8, 8, 6, 0.125, 0},
		{false, 6, 5, 7, 7, 5, 5, 1, 1},
		{true, 3, 4, 5, 5, 5, 4, 2, 0.5},
		{false, 8, 8, 8, 11, 13, 9, 1, 0}, // padded leading dims
		{true, 1, 33, 16, 16, 16, 33, 0.25, 0},
	}
	for ci, c := range cases {
		bRows, bCols := c.k, c.n
		if c.transB {
			bRows, bCols = c.n, c.k
		}
		a := randSlice(r, (c.m-1)*c.lda+c.k)
		b := randSlice(r, (bRows-1)*c.ldb+bCols)
		cInit := randSlice(r, (c.m-1)*c.ldc+c.n)

		want := append([]float32(nil), cInit...)
		Gemm(false, c.transB, c.m, c.n, c.k, c.alpha, roundedCopy(a), c.lda, roundedCopy(b), c.ldb, c.beta, want, c.ldc)

		got := append([]float32(nil), cInit...)
		GemmF16(false, c.transB, c.m, c.n, c.k, c.alpha, encoded(a), c.lda, encoded(b), c.ldb, c.beta, got, c.ldc)
		bitsEqual(t, got, want, "GemmF16 case "+string(rune('0'+ci)))
	}
}

// TestGemmScaleInAlphaCommutes pins the identity that lets the decode-
// attention kernel fold the softmax scale into GEMM alpha on both
// precisions: with the NT kernel's per-element `c += alpha*sum` accumulation, scaling via alpha equals
// scaling the output afterwards, bit for bit (IEEE multiply is commutative
// and each output element sees exactly one multiply either way).
func TestGemmScaleInAlphaCommutes(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const m, n, k = 7, 9, 16
	a, b := randSlice(r, m*k), randSlice(r, n*k)
	const scale = 0.17677669529663687 // 1/√32

	pre := make([]float32, m*n)
	Gemm(false, true, m, n, k, scale, a, k, b, k, 0, pre, n)

	post := make([]float32, m*n)
	Gemm(false, true, m, n, k, 1, a, k, b, k, 0, post, n)
	for i := range post {
		post[i] *= scale
	}
	bitsEqual(t, pre, post, "alpha-folded scale")
}
