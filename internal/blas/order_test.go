package blas

import (
	"math"
	"math/rand"
	"testing"
)

// gemmOrdered spells, one scalar operation at a time, the float32 operation
// sequence every NN and NT kernel must reproduce for each output element:
// NN accumulates (alpha*a)*b into beta*c with p ascending; NT sums four
// strided partials, folds them left to right, adds the k mod 4 tail in order
// and adds alpha times that to beta*c.
func gemmOrdered(transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			cij := &c[i*ldc+j]
			switch beta {
			case 0:
				*cij = 0
			case 1:
			default:
				*cij *= beta
			}
			if k == 0 || alpha == 0 {
				continue
			}
			if !transB {
				for p := 0; p < k; p++ {
					x := alpha * a[i*lda+p]
					*cij += x * b[p*ldb+j]
				}
				continue
			}
			var s [4]float32
			p := 0
			for ; p+4 <= k; p += 4 {
				for u := range s {
					s[u] += a[i*lda+p+u] * b[j*ldb+p+u]
				}
			}
			sum := s[0] + s[1] + s[2] + s[3]
			for ; p < k; p++ {
				sum += a[i*lda+p] * b[j*ldb+p]
			}
			*cij += alpha * sum
		}
	}
}

// orderedCase is one Gemm(false, transB, …) problem with padded leading
// dimensions; A carries the exact +0 and −0 entries a ReLU leaves behind.
type orderedCase struct {
	transB        bool
	m, n, k       int
	lda, ldb, ldc int
	alpha, beta   float32
	a, b, c       []float32
}

func newOrderedCase(rng *rand.Rand, transB bool, m, n, k int, alpha, beta float32) orderedCase {
	tc := orderedCase{transB: transB, m: m, n: n, k: k, lda: k + 3, ldb: n + 2, ldc: n + 5, alpha: alpha, beta: beta}
	bRows := k
	if transB {
		tc.ldb, bRows = k+2, n
	}
	tc.a = randSlice(rng, m*tc.lda)
	for i := range tc.a {
		switch rng.Intn(5) {
		case 0:
			tc.a[i] = 0
		case 1:
			tc.a[i] = float32(math.Copysign(0, -1))
		}
	}
	tc.b = randSlice(rng, bRows*tc.ldb)
	tc.c = randSlice(rng, m*tc.ldc)
	return tc
}

// mismatch runs Gemm and the ordered reference on copies of C and returns the
// first element (padding included) whose bits differ, or -1.
func (tc *orderedCase) mismatch() (at int, got, want float32) {
	g := append([]float32(nil), tc.c...)
	w := append([]float32(nil), tc.c...)
	Gemm(false, tc.transB, tc.m, tc.n, tc.k, tc.alpha, tc.a, tc.lda, tc.b, tc.ldb, tc.beta, g, tc.ldc)
	gemmOrdered(tc.transB, tc.m, tc.n, tc.k, tc.alpha, tc.a, tc.lda, tc.b, tc.ldb, tc.beta, w, tc.ldc)
	for i := range g {
		if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
			return i, g[i], w[i]
		}
	}
	return -1, 0, 0
}

var (
	orderedAlphas = []float32{1, 0.125, float32(1 / math.Sqrt(32))}
	orderedBetas  = []float32{0, 1, 0.5}
)

// TestGemmBitIdenticalToOrderedReference pins the order invariant at the
// layer that owns it: both row kernels (m 1..9 covers pairs with and without
// an odd last row), every p and column tail, a row split across workers,
// padded leading dimensions, and the scalars serving uses (alpha =
// 1/sqrt(head dim) folded into Q·Kᵀ, beta = 1 span rounds).
func TestGemmBitIdenticalToOrderedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	check := func(transB bool, m, n, k int, alpha, beta float32) {
		tc := newOrderedCase(rng, transB, m, n, k, alpha, beta)
		if at, got, want := tc.mismatch(); at >= 0 {
			t.Fatalf("transB=%v m=%d n=%d k=%d alpha=%g beta=%g: c[%d] = %g (%#08x), ordered reference %g (%#08x)",
				transB, m, n, k, alpha, beta, at, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
	for _, transB := range []bool{false, true} {
		for _, alpha := range orderedAlphas {
			for _, beta := range orderedBetas {
				for m := 1; m <= 9; m++ {
					for _, n := range []int{1, 5, 37} {
						for _, k := range []int{0, 1, 3, 4, 6, 13, 32, 35} {
							check(transB, m, n, k, alpha, beta)
						}
					}
				}
				check(transB, 37, 11, 7, alpha, beta)
			}
		}
	}
}

// TestGemmRowsIndependent: row i of an m-row call equals the one-row call on
// that row, bit for bit — what batched == solo rests on.
func TestGemmRowsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, transB := range []bool{false, true} {
		for m := 1; m <= 9; m++ {
			tc := newOrderedCase(rng, transB, m, 37, 35, orderedAlphas[2], 0.5)
			all := append([]float32(nil), tc.c...)
			Gemm(false, transB, m, tc.n, tc.k, tc.alpha, tc.a, tc.lda, tc.b, tc.ldb, tc.beta, all, tc.ldc)
			for i := 0; i < m; i++ {
				row := append([]float32(nil), tc.c[i*tc.ldc:(i+1)*tc.ldc]...)
				Gemm(false, transB, 1, tc.n, tc.k, tc.alpha, tc.a[i*tc.lda:], tc.lda, tc.b, tc.ldb, tc.beta, row, tc.ldc)
				for j := range row {
					if math.Float32bits(row[j]) != math.Float32bits(all[i*tc.ldc+j]) {
						t.Fatalf("transB=%v m=%d: row %d col %d alone %g, batched %g", transB, m, i, j, row[j], all[i*tc.ldc+j])
					}
				}
			}
		}
	}
}

// FuzzGemmOrderedReference lets the fuzzer pick shape, scalars and data seed.
func FuzzGemmOrderedReference(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(100), uint8(32), true, uint8(2), uint8(0))
	f.Add(int64(2), uint8(8), uint8(128), uint8(128), false, uint8(0), uint8(0))
	f.Add(int64(3), uint8(5), uint8(33), uint8(7), false, uint8(1), uint8(2))
	f.Add(int64(4), uint8(3), uint8(2), uint8(255), true, uint8(0), uint8(1))
	f.Add(int64(5), uint8(40), uint8(9), uint8(5), false, uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, m, n, k uint8, transB bool, alphaSel, betaSel uint8) {
		alpha := orderedAlphas[int(alphaSel)%len(orderedAlphas)]
		beta := orderedBetas[int(betaSel)%len(orderedBetas)]
		tc := newOrderedCase(rand.New(rand.NewSource(seed)), transB, int(m), int(n), int(k), alpha, beta)
		if at, got, want := tc.mismatch(); at >= 0 {
			t.Fatalf("c[%d] = %g, ordered reference %g", at, got, want)
		}
	})
}
