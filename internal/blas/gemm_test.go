package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gemmRef is an obviously-correct O(mnk) reference used to validate the
// blocked/parallel implementation.
func gemmRef(transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	bt := func(p, j int) float32 {
		if transB {
			return b[j*ldb+p]
		}
		return b[p*ldb+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for p := 0; p < k; p++ {
				sum += float64(a[i*lda+p]) * float64(bt(p, j))
			}
			c[i*ldc+j] = alpha*float32(sum) + beta*c[i*ldc+j]
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

func maxDiff(a, b []float32) float64 {
	var d float64
	for i := range a {
		x := math.Abs(float64(a[i]) - float64(b[i]))
		if x > d {
			d = x
		}
	}
	return d
}

// TestGemmAllTransposeCombos: both B layouts match the reference; a
// transposed A — a kernel no caller needs — panics.
func TestGemmAllTransposeCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct{ m, n, k int }{
		{1, 1, 1}, {3, 5, 7}, {17, 9, 33}, {64, 64, 64}, {65, 63, 130}, {2, 128, 1},
	}
	for _, tc := range cases {
		for _, transB := range []bool{false, true} {
			ldb, ldc := tc.n, tc.n
			if transB {
				ldb = tc.k
			}
			a := randSlice(rng, tc.m*tc.k)
			b := randSlice(rng, tc.k*tc.n)
			c0 := randSlice(rng, tc.m*tc.n)
			got := append([]float32(nil), c0...)
			want := append([]float32(nil), c0...)
			Gemm(false, transB, tc.m, tc.n, tc.k, 0.5, a, tc.k, b, ldb, 0.25, got, ldc)
			gemmRef(transB, tc.m, tc.n, tc.k, 0.5, a, tc.k, b, ldb, 0.25, want, ldc)
			if d := maxDiff(got, want); d > 1e-3 {
				t.Fatalf("m=%d n=%d k=%d tB=%v: maxdiff=%g", tc.m, tc.n, tc.k, transB, d)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("m=%d n=%d k=%d tB=%v: a transposed A did not panic", tc.m, tc.n, tc.k, transB)
					}
				}()
				Gemm(true, transB, tc.m, tc.n, tc.k, 0.5, a, tc.m, b, ldb, 0.25, got, ldc)
			}()
		}
	}
}

func TestGemmLeadingDimensionPadding(t *testing.T) {
	// C has padding columns that must remain untouched.
	const m, n, k, ldc = 4, 3, 5, 8
	rng := rand.New(rand.NewSource(2))
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	c := make([]float32, m*ldc)
	for i := range c {
		c[i] = -99
	}
	Gemm(false, false, m, n, k, 1, a, k, b, n, 0, c, ldc)
	for i := 0; i < m; i++ {
		for j := n; j < ldc; j++ {
			if c[i*ldc+j] != -99 {
				t.Fatalf("padding c[%d,%d] clobbered: %v", i, j, c[i*ldc+j])
			}
		}
	}
}

func TestGemmBetaOne(t *testing.T) {
	// beta=1 must accumulate, not overwrite.
	a := []float32{1, 0, 0, 1}
	b := []float32{2, 3, 4, 5}
	c := []float32{10, 10, 10, 10}
	Gemm(false, false, 2, 2, 2, 1, a, 2, b, 2, 1, c, 2)
	want := []float32{12, 13, 14, 15}
	if maxDiff(c, want) > 1e-6 {
		t.Fatalf("got %v want %v", c, want)
	}
}

func TestGemmAlphaZeroShortCircuit(t *testing.T) {
	a := []float32{float32(math.NaN())}
	b := []float32{float32(math.NaN())}
	c := []float32{3}
	Gemm(false, false, 1, 1, 1, 0, a, 1, b, 1, 1, c, 1)
	if c[0] != 3 {
		t.Fatalf("alpha=0 beta=1 should leave C untouched, got %v", c[0])
	}
}

func TestGemmKZero(t *testing.T) {
	c := []float32{1, 2}
	Gemm(false, false, 1, 2, 0, 1, nil, 0, nil, 2, 0.5, c, 2)
	if c[0] != 0.5 || c[1] != 1 {
		t.Fatalf("k=0 should just scale C: %v", c)
	}
}

func TestGemmEmptyOutput(t *testing.T) {
	// Must not panic.
	Gemm(false, false, 0, 0, 4, 1, nil, 4, nil, 0, 0, nil, 0)
}

func TestGemmDimensionChecks(t *testing.T) {
	cases := []func(){
		func() { Gemm(false, false, -1, 2, 2, 1, nil, 2, nil, 2, 0, nil, 2) },
		func() {
			Gemm(false, false, 2, 2, 2, 1, make([]float32, 3), 2, make([]float32, 4), 2, 0, make([]float32, 4), 2)
		},
		func() {
			Gemm(false, false, 2, 2, 2, 1, make([]float32, 4), 1, make([]float32, 4), 2, 0, make([]float32, 4), 2)
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestStridedBatchedGemmMatchesLoop(t *testing.T) {
	const m, n, k, batch = 7, 5, 9, 6
	rng := rand.New(rand.NewSource(3))
	a := randSlice(rng, batch*m*k)
	b := randSlice(rng, batch*k*n)
	got := make([]float32, batch*m*n)
	want := make([]float32, batch*m*n)
	StridedBatchedGemm(false, true, m, n, k, 1, a, k, m*k, b, k, n*k, 0, got, n, m*n, batch)
	for bi := 0; bi < batch; bi++ {
		gemmRef(true, m, n, k, 1, a[bi*m*k:], k, b[bi*n*k:], k, 0, want[bi*m*n:], n)
	}
	if d := maxDiff(got, want); d > 1e-3 {
		t.Fatalf("strided batched maxdiff=%g", d)
	}
}

// TestBatchedGemmValidatesBeforeWriting: an operand too short for the last
// problem must panic before any problem is scaled or written — of a strided
// batch, and of a later group of a grouped call.
func TestBatchedGemmValidatesBeforeWriting(t *testing.T) {
	const m, n, k, batch = 2, 3, 4, 5
	rng := rand.New(rand.NewSource(5))
	a := randSlice(rng, batch*m*k)
	b := randSlice(rng, batch*k*n)
	sevens := func(n int) []float32 {
		c := make([]float32, n)
		for i := range c {
			c[i] = 7
		}
		return c
	}
	group := func(c []float32) StridedBatch {
		return StridedBatch{M: m, N: n, K: k, A: a, Lda: k, StrideA: m * k, B: b, Ldb: n, StrideB: k * n, C: c, Ldc: n, StrideC: m * n, Count: batch}
	}
	panicsUntouched := func(name string, run func(), cs ...[]float32) {
		t.Helper()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected a panic on the undersized C", name)
				}
			}()
			run()
		}()
		for _, c := range cs {
			for i, v := range c {
				if v != 7 {
					t.Fatalf("%s: c[%d] = %v written before the panic", name, i, v)
				}
			}
		}
	}
	full, short := sevens(batch*m*n), sevens(batch*m*n-1)
	panicsUntouched("strided", func() {
		StridedBatchedGemm(false, false, m, n, k, 1, a, k, m*k, b, n, k*n, 0, short, n, m*n, batch)
	}, short)
	panicsUntouched("grouped", func() {
		GroupedStridedBatchedGemm(false, false, 1, 0, []StridedBatch{group(full), group(short)})
	}, full, short)
}

func TestStridedBatchedGemmZeroBatch(t *testing.T) {
	StridedBatchedGemm(false, false, 2, 2, 2, 1, nil, 2, 0, nil, 2, 0, 0, nil, 2, 0, 0)
}

// Property: distributivity A(B+C) == AB + AC (within FP32 slack).
func TestQuickGemmDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const m, n, k = 5, 4, 6
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		c := randSlice(rng, k*n)
		bc := make([]float32, k*n)
		for i := range bc {
			bc[i] = b[i] + c[i]
		}
		left := make([]float32, m*n)
		Gemm(false, false, m, n, k, 1, a, k, bc, n, 0, left, n)
		right := make([]float32, m*n)
		Gemm(false, false, m, n, k, 1, a, k, b, n, 0, right, n)
		Gemm(false, false, m, n, k, 1, a, k, c, n, 1, right, n)
		return maxDiff(left, right) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: identity matrix is a left identity.
func TestQuickGemmIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 8
		eye := make([]float32, n*n)
		for i := 0; i < n; i++ {
			eye[i*n+i] = 1
		}
		b := randSlice(rng, n*n)
		c := make([]float32, n*n)
		Gemm(false, false, n, n, n, 1, eye, n, b, n, 0, c, n)
		return maxDiff(c, b) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: (AB)ᵀ == BᵀAᵀ, exercised through the transB flag.
func TestQuickGemmTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const m, n, k = 6, 7, 5
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		ab := make([]float32, m*n)
		Gemm(false, false, m, n, k, 1, a, k, b, n, 0, ab, n)
		// Compute Bᵀ·Aᵀ as an n×m product: Bᵀ stored explicitly, Aᵀ through
		// the transB flag on the original A.
		bt := make([]float32, n*k)
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				bt[j*k+p] = b[p*n+j]
			}
		}
		btat := make([]float32, n*m)
		Gemm(false, true, n, m, k, 1, bt, k, a, k, 0, btat, m)
		// Compare ab[i,j] with btat[j,i].
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(float64(ab[i*n+j])-float64(btat[j*m+i])) > 1e-3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkGemm times the two kernels on the shapes the ledger's system
// (hidden 128, 4 heads, FFN 512, max length 224 tokens per packed batch)
// actually calls: NN for the projections at decode-step, mean generate
// prompt (m = 40, what TTFT's prefill runs at) and packed-encoder row counts
// plus attention's scores·V, NT for Q·Kᵀ at one decode row and at a full
// packed batch. nnh is NN with a binary16 B (GemmHalfB) on the NN shapes:
// B converted in the load up to halfLoadMaxRows rows, decoded once above
// (and on sse2, which has no binary16 body). Names are kind/m x n x k/body:
// NN and nnh run on every body this build and CPU have (avx512, avx, sse2 or
// go), NT on its one. A call that runs inline (one P, or fewer than 16 rows)
// must report 0 allocs/op. B is the same buffer every iteration, so it is
// hot in cache; BenchmarkDecodeStepWeights streams it.
func BenchmarkGemm(b *testing.B) {
	type shape struct{ m, n, k int }
	var nn []shape
	for _, m := range []int{1, 4, 8, 14, 40, 224} {
		nn = append(nn, shape{m, 384, 128}, shape{m, 128, 128}, shape{m, 512, 128}, shape{m, 128, 512})
	}
	nn = append(nn, shape{224, 32, 224})
	nt := []shape{{1, 100, 32}, {224, 224, 32}}
	run := func(kind string, transB bool, shapes []shape, bodies []nnBody) {
		for _, s := range shapes {
			for _, body := range bodies {
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", kind, s.m, s.n, s.k, body.name), func(b *testing.B) {
					body.use()
					rng := rand.New(rand.NewSource(1))
					a := randSlice(rng, s.m*s.k)
					bb := randSlice(rng, s.k*s.n)
					bh := EncodeHalf(bb)
					c := make([]float32, s.m*s.n)
					ldb := s.n
					if transB {
						ldb = s.k
					}
					b.ReportAllocs()
					for b.Loop() {
						if kind == "nnh" {
							GemmHalfB(s.m, s.n, s.k, 1, a, s.k, bh, ldb, 0, c, s.n)
						} else {
							Gemm(false, transB, s.m, s.n, s.k, 1, a, s.k, bb, ldb, 0, c, s.n)
						}
					}
					flop := 2 * float64(s.m) * float64(s.n) * float64(s.k) * float64(b.N)
					b.ReportMetric(flop/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
	bodies := nnBodies()
	defer bodies[0].use()
	run("nn", false, nn, bodies)
	run("nnh", false, nn, bodies)
	// dot2's one body is the four-lane one: SSE2 where NN has assembly, Go
	// where it has not — the last of nnBodies.
	run("nt", true, nt, bodies[len(bodies)-1:])
}
