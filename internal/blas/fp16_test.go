package blas

import (
	"fmt"
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

// BenchmarkDecodeStepWeights runs the weight products of one decode step of
// the ledger's decoder (hidden 128, FFN 512, two layers, vocabulary 512:
// per layer six 128×128 products, 128×512 and 512×128, then 128×512 for the
// vocabulary) over distinct B buffers, m rows each — 2 MiB of fp32 weights,
// the L2 of the host DESIGN.md §2d measures on, or 1 MiB of binary16. Unlike
// BenchmarkGemm, whose B stays hot, it reads what the live step reads: every
// weight once per step, so fp32 weights come from beyond L2 and binary16 ones
// fit. Kinds: fp32 (Gemm), load (binary16 converted in the load) and decode
// (binary16 decoded once, then Gemm) — where load stops beating decode as m
// grows is halfLoadMaxRows. Names are kind/m<rows>/body; ns/op is one step's
// products, and GFLOP/s their rate.
func BenchmarkDecodeStepWeights(b *testing.B) {
	const h, inter, vocab, layers = 128, 512, 512, 2
	type shape struct{ k, n int }
	var shapes []shape
	for l := 0; l < layers; l++ {
		shapes = append(shapes, shape{h, h}, shape{h, h}, shape{h, h}, shape{h, h}, shape{h, h}, shape{h, h}, shape{h, inter}, shape{inter, h})
	}
	shapes = append(shapes, shape{h, vocab})
	rng := rand.New(rand.NewSource(3))
	f32, f16 := make([][]float32, len(shapes)), make([]Half, len(shapes))
	flop := 0.0
	for i, s := range shapes {
		f32[i] = randSlice(rng, s.k*s.n)
		f16[i] = EncodeHalf(f32[i])
		flop += 2 * float64(s.k) * float64(s.n)
	}
	bodies := nnBodies()
	defer bodies[0].use()
	for _, kind := range []string{"fp32", "load", "decode"} {
		for _, m := range []int{1, 2, 3, 4, 6, 8, 16} {
			for _, body := range bodies {
				body.use()
				if kind == "load" && !halfInLoad() {
					continue
				}
				b.Run(fmt.Sprintf("%s/m%d/%s", kind, m, body.name), func(b *testing.B) {
					body.use()
					a := randSlice(rng, m*inter)
					c := make([]float32, m*max(inter, vocab))
					b.ReportAllocs()
					for b.Loop() {
						for i, s := range shapes {
							switch kind {
							case "fp32":
								Gemm(false, false, m, s.n, s.k, 1, a, s.k, f32[i], s.n, 0, c, s.n)
							case "load":
								gemmHalfBInLoad(m, s.n, s.k, 1, a, s.k, f16[i], s.n, 0, c, s.n)
							default:
								gemmHalfBDecoded(m, s.n, s.k, 1, a, s.k, f16[i], s.n, 0, c, s.n)
							}
						}
					}
					b.ReportMetric(flop*float64(m)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}
