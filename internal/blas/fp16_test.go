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
// rounded through binary16, bit for bit, across all four transpose modes,
// padded leading dimensions, and nonzero alpha/beta.
func TestGemmF16BitIdenticalToRoundedGemm(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cases := []struct {
		transA, transB bool
		m, n, k        int
		lda, ldb, ldc  int
		alpha, beta    float32
	}{
		{false, false, 5, 7, 9, 9, 7, 7, 1, 0},
		{false, true, 4, 6, 8, 8, 8, 6, 0.125, 0},
		{true, false, 6, 5, 7, 6, 5, 5, 1, 1},
		{true, true, 3, 4, 5, 3, 5, 4, 2, 0.5},
		{false, false, 8, 8, 8, 11, 13, 9, 1, 0}, // padded leading dims
		{false, true, 1, 33, 16, 16, 16, 33, 0.25, 0},
	}
	for ci, c := range cases {
		aRows, aCols := c.m, c.k
		if c.transA {
			aRows, aCols = c.k, c.m
		}
		bRows, bCols := c.k, c.n
		if c.transB {
			bRows, bCols = c.n, c.k
		}
		a := randSlice(r, (aRows-1)*c.lda+aCols)
		b := randSlice(r, (bRows-1)*c.ldb+bCols)
		cInit := randSlice(r, (c.m-1)*c.ldc+c.n)

		want := append([]float32(nil), cInit...)
		Gemm(c.transA, c.transB, c.m, c.n, c.k, c.alpha, roundedCopy(a), c.lda, roundedCopy(b), c.ldb, c.beta, want, c.ldc)

		got := append([]float32(nil), cInit...)
		GemmF16(c.transA, c.transB, c.m, c.n, c.k, c.alpha, encoded(a), c.lda, encoded(b), c.ldb, c.beta, got, c.ldc)
		bitsEqual(t, got, want, "GemmF16 case "+string(rune('0'+ci)))

		// Mixed-operand variant: fp32 A that is already binary16-valued.
		got2 := append([]float32(nil), cInit...)
		GemmF16A32(c.transA, c.transB, c.m, c.n, c.k, c.alpha, roundedCopy(a), c.lda, encoded(b), c.ldb, c.beta, got2, c.ldc)
		bitsEqual(t, got2, want, "GemmF16A32 case "+string(rune('0'+ci)))
	}
}

// TestGroupedStridedBatchedGemmF16 pins the grouped fp16 route against (a)
// the grouped fp32 route over rounded operands and (b) per-problem GemmF16
// calls, both bit for bit. Shapes mirror decode attention: per-group
// M=1,N=ctx,K=headDim batched over heads, with head-strided operands.
func TestGroupedStridedBatchedGemmF16(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const heads, hd = 3, 8
	hidden := heads * hd
	ctxs := []int{5, 12, 1}

	var groups []StridedBatchF16
	var plain []StridedBatch
	var qs, ks [][]float32
	var outF16, outRef [][]float32
	for _, T := range ctxs {
		q := randSlice(r, hidden)
		k := randSlice(r, T*hidden)
		qs, ks = append(qs, q), append(ks, k)
		g := make([]float32, heads*T)
		w := make([]float32, heads*T)
		outF16, outRef = append(outF16, g), append(outRef, w)
		groups = append(groups, StridedBatchF16{
			M: 1, N: T, K: hd,
			A: encoded(q), Lda: hd, StrideA: hd,
			B: encoded(k), Ldb: hidden, StrideB: hd,
			C: g, Ldc: T, StrideC: T,
			Count: heads,
		})
		plain = append(plain, StridedBatch{
			M: 1, N: T, K: hd,
			A: roundedCopy(q), Lda: hd, StrideA: hd,
			B: roundedCopy(k), Ldb: hidden, StrideB: hd,
			C: w, Ldc: T, StrideC: T,
			Count: heads,
		})
	}
	const alpha = 0.353
	GroupedStridedBatchedGemmF16(false, true, alpha, 0, groups)
	GroupedStridedBatchedGemm(false, true, alpha, 0, plain)
	for i := range outF16 {
		bitsEqual(t, outF16[i], outRef[i], "grouped vs fp32-rounded grouped")
	}

	// Per-problem GemmF16 must agree with the grouped route.
	for i, T := range ctxs {
		for h := 0; h < heads; h++ {
			single := make([]float32, T)
			GemmF16(false, true, 1, T, hd, alpha,
				encoded(qs[i])[h*hd:], hd, encoded(ks[i])[h*hd:], hidden, 0, single, T)
			bitsEqual(t, single, outF16[i][h*T:h*T+T], "grouped vs per-problem")
		}
	}
}

// TestGroupedF16MixedOperands exercises the AF fp32 branch (probs·V shape:
// fp32 probabilities against binary16 values).
func TestGroupedF16MixedOperands(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const heads, hd, T = 2, 4, 6
	hidden := heads * hd
	probs := roundedCopy(randSlice(r, heads*T))
	vals := randSlice(r, T*hidden)
	got := make([]float32, hidden)
	want := make([]float32, hidden)

	GroupedStridedBatchedGemmF16(false, false, 1, 0, []StridedBatchF16{{
		M: 1, N: hd, K: T,
		AF: probs, Lda: T, StrideA: T,
		B: encoded(vals), Ldb: hidden, StrideB: hd,
		C: got, Ldc: hd, StrideC: hd,
		Count: heads,
	}})
	GroupedStridedBatchedGemm(false, false, 1, 0, []StridedBatch{{
		M: 1, N: hd, K: T,
		A: probs, Lda: T, StrideA: T,
		B: roundedCopy(vals), Ldb: hidden, StrideB: hd,
		C: want, Ldc: hd, StrideC: hd,
		Count: heads,
	}})
	bitsEqual(t, got, want, "mixed-operand grouped")
}

// TestGemmScaleInAlphaCommutes pins the identity that lets the fused QK
// kernel fold the softmax scale into GEMM alpha: with the NT kernel's
// per-element `c += alpha*sum` accumulation, scaling via alpha equals
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

// BenchmarkGroupedStridedBatchedGemmF16 times the decode-attention shape of
// the grouped fp16 route — per session, heads single-query problems against
// that session's binary16 keys, the query as the binary16-valued fp32 AF
// operand — and reports allocs/op: the descriptors and decode buffers are
// pooled, so what remains is the fp32 grouped kernel's own bookkeeping.
func BenchmarkGroupedStridedBatchedGemmF16(b *testing.B) {
	r := rand.New(rand.NewSource(17))
	const heads, hd, sessions, ctx = 4, 32, 8, 48
	hidden := heads * hd
	groups := make([]StridedBatchF16, sessions)
	for i := range groups {
		groups[i] = StridedBatchF16{
			M: 1, N: ctx, K: hd,
			AF: roundedCopy(randSlice(r, hidden)), Lda: hd, StrideA: hd,
			B: encoded(randSlice(r, ctx*hidden)), Ldb: hidden, StrideB: hd,
			C: make([]float32, heads*ctx), Ldc: ctx, StrideC: ctx,
			Count: heads,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GroupedStridedBatchedGemmF16(false, true, 0.176, 0, groups)
	}
}
