package blas

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// gemmOrdered spells, one scalar operation at a time, the float32 operation
// sequence every NN and NT kernel must reproduce for each output element:
// NN accumulates (alpha*a)*b into beta*c with p ascending; NT sums four
// strided partials, folds them left to right, adds the k mod 4 tail in order
// and adds alpha times that to beta*c. Every product goes through float32(…),
// which forbids the compiler to fuse it with the add that follows (arm64,
// GOAMD64=v3): one rounded multiply, one rounded add, on every target.
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
					*cij += float32(x * b[p*ldb+j])
				}
				continue
			}
			var s [4]float32
			p := 0
			for ; p+4 <= k; p += 4 {
				for u := range s {
					s[u] += float32(a[i*lda+p+u] * b[j*ldb+p+u])
				}
			}
			sum := s[0] + s[1] + s[2] + s[3]
			for ; p < k; p++ {
				sum += float32(a[i*lda+p] * b[j*ldb+p])
			}
			*cij += float32(alpha * sum)
		}
	}
}

// orderedCase is one Gemm(false, transB, …) problem with padded leading
// dimensions; A carries the exact +0 and −0 entries a ReLU leaves behind.
// The padding columns and the tail of the last row hold random values that
// work as canaries: mismatch compares them too.
type orderedCase struct {
	transB        bool
	m, n, k       int
	lda, ldb, ldc int
	alpha, beta   float32
	a, b, c       []float32
}

// newOrderedCase starts A, B and C off, off+1 and off+2 (mod 4) floats into
// their allocations, so that a kernel's 16-byte loads and stores meet every
// alignment, absolute and relative.
func newOrderedCase(rng *rand.Rand, transB bool, m, n, k int, alpha, beta float32, off int) orderedCase {
	aOff, bOff, cOff := off&3, (off+1)&3, (off+2)&3
	tc := orderedCase{transB: transB, m: m, n: n, k: k, lda: k + 3, ldb: n + 2, ldc: n + 5, alpha: alpha, beta: beta}
	bRows := k
	if transB {
		tc.ldb, bRows = k+2, n
	}
	tc.a = randSlice(rng, m*tc.lda+aOff)[aOff:]
	for i := range tc.a {
		switch rng.Intn(5) {
		case 0:
			tc.a[i] = 0
		case 1:
			tc.a[i] = float32(math.Copysign(0, -1))
		}
	}
	tc.b = randSlice(rng, bRows*tc.ldb+bOff)[bOff:]
	tc.c = randSlice(rng, m*tc.ldc+cOff)[cOff:]
	return tc
}

// mismatch runs Gemm on C where it sits and the ordered reference on a copy,
// and returns the first element (padding included) whose bits differ, or -1.
func (tc *orderedCase) mismatch() (at int, got, want float32) {
	return tc.mismatchOf(exactBits, func(c []float32) {
		Gemm(false, tc.transB, tc.m, tc.n, tc.k, tc.alpha, tc.a, tc.lda, tc.b, tc.ldb, tc.beta, c, tc.ldc)
	})
}

// halfB stores the case's B (NN) as binary16, off+1 (mod 4) halves into its
// allocation, salted with the halves a conversion must carry exactly: ±0 and
// subnormals one element in eight, ±Inf and the encoder's quiet NaN one in
// sixty-four. tc.b becomes their decoded values, the B the ordered reference
// reads.
func (tc *orderedCase) halfB(rng *rand.Rand, off int) Half {
	bOff := (off + 1) & 3
	h := make(Half, len(tc.b)+bOff)[bOff:]
	tensor.EncodeF16Slice(h, tc.b)
	for i := range h {
		switch r := rng.Intn(64); {
		case r < 8:
			h[i] = [4]uint16{0x0000, 0x8000, 0x0001, 0x83ff}[r&3]
		case r == 8:
			h[i] = [4]uint16{0x7c00, 0xfc00, 0x7e00, 0xfe00}[rng.Intn(4)]
		}
	}
	tensor.DecodeF16Slice(tc.b, h)
	return h
}

// mismatchHalf is mismatch for GemmHalfB over h, B's binary16 storage. B's
// ±Inf and NaN halves make NaNs, so two NaNs count as the same (sameBits).
func (tc *orderedCase) mismatchHalf(h Half) (at int, got, want float32) {
	return tc.mismatchOf(sameBits, func(c []float32) {
		GemmHalfB(tc.m, tc.n, tc.k, tc.alpha, tc.a, tc.lda, h, tc.ldb, tc.beta, c, tc.ldc)
	})
}

// mismatchOf runs gemm on C where it sits and the ordered reference on a
// copy, and returns the first element (padding included) that same rejects,
// or -1.
func (tc *orderedCase) mismatchOf(same func(x, y float32) bool, gemm func(c []float32)) (at int, got, want float32) {
	g, w := tc.c, append([]float32(nil), tc.c...)
	gemm(g)
	gemmOrdered(tc.transB, tc.m, tc.n, tc.k, tc.alpha, tc.a, tc.lda, tc.b, tc.ldb, tc.beta, w, tc.ldc)
	for i := range g {
		if !same(g[i], w[i]) {
			return i, g[i], w[i]
		}
	}
	return -1, 0, 0
}

// exactBits reports whether x and y have the same bits.
func exactBits(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }

// sameBits reports whether x and y have the same bits, or are both NaN: a
// NaN's sign and payload come from whichever operand the hardware or the
// compiler put first, and the order invariant does not fix that. Only the
// binary16-B checks use it: their B holds ±Inf and NaN; no fp32 input does.
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || math.IsNaN(float64(x)) && math.IsNaN(float64(y))
}

// nnBody is one body of the NN kernels: use switches gemmNN to it.
type nnBody struct {
	name string
	use  func()
}

// eachNNBody runs f as a subtest once per NN body this build and CPU have
// (nnBodies), and leaves gemmNN on the one the probe picked.
func eachNNBody(t *testing.T, f func(t *testing.T)) {
	bodies := nnBodies()
	defer bodies[0].use()
	for _, body := range bodies {
		body.use()
		t.Run(body.name, f)
	}
}

var (
	orderedAlphas = []float32{1, 0.125, float32(1 / math.Sqrt(32))}
	orderedBetas  = []float32{0, 1, 0.5}
)

// TestGemmBitIdenticalToOrderedReference pins the order invariant at the
// layer that owns it: both row kernels (m 1..9 covers pairs with and without
// an odd last row), every p and column tail, a row split across workers,
// padded leading dimensions, and the scalars serving uses (alpha =
// 1/sqrt(head dim) folded into Q·Kᵀ, beta = 1 span rounds). The second sweep
// is for what a vector kernel gets wrong: every boundary between a sixteen-,
// eight- or four-wide body and its tail in n and in k, at every operand alignment, for
// the one-row kernel, the two-row kernel and both. Each NN body runs it all.
func TestGemmBitIdenticalToOrderedReference(t *testing.T) {
	eachNNBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		check := func(transB bool, m, n, k int, alpha, beta float32, off int) {
			tc := newOrderedCase(rng, transB, m, n, k, alpha, beta, off)
			if at, got, want := tc.mismatch(); at >= 0 {
				t.Fatalf("transB=%v m=%d n=%d k=%d alpha=%g beta=%g off=%d: c[%d] = %g (%#08x), ordered reference %g (%#08x)",
					transB, m, n, k, alpha, beta, off, at, got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
		for _, transB := range []bool{false, true} {
			for _, alpha := range orderedAlphas {
				for _, beta := range orderedBetas {
					for m := 1; m <= 9; m++ {
						for _, n := range []int{1, 5, 37} {
							for _, k := range []int{0, 1, 3, 4, 6, 13, 32, 35} {
								check(transB, m, n, k, alpha, beta, 0)
							}
						}
					}
					check(transB, 37, 11, 7, alpha, beta, 0)
				}
			}
			for m := 1; m <= 3; m++ {
				for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 23, 24, 25, 31, 32, 33, 47, 48, 49} {
					for k := 0; k <= 9; k++ {
						for off := 0; off < 4; off++ {
							check(transB, m, n, k, orderedAlphas[2], 0.5, off)
						}
					}
				}
			}
		}
	})
}

// TestGemmRowsIndependent: row i of an m-row call equals the one-row call on
// that row, bit for bit — what batched == solo rests on — on each NN body,
// for Gemm and for GemmHalfB, whose m-row calls above halfLoadMaxRows decode
// B once where its one-row calls convert it in the load.
func TestGemmRowsIndependent(t *testing.T) {
	eachNNBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		for _, kind := range []string{"nn", "nt", "nnh"} {
			transB := kind == "nt"
			for m := 1; m <= 9; m++ {
				tc := newOrderedCase(rng, transB, m, 37, 35, orderedAlphas[2], 0.5, m)
				gemm := func(m int, a, c []float32) {
					Gemm(false, transB, m, tc.n, tc.k, tc.alpha, a, tc.lda, tc.b, tc.ldb, tc.beta, c, tc.ldc)
				}
				same := exactBits
				if kind == "nnh" {
					h := tc.halfB(rng, m)
					same = sameBits
					gemm = func(m int, a, c []float32) {
						GemmHalfB(m, tc.n, tc.k, tc.alpha, a, tc.lda, h, tc.ldb, tc.beta, c, tc.ldc)
					}
				}
				all := append([]float32(nil), tc.c...)
				gemm(m, tc.a, all)
				for i := 0; i < m; i++ {
					row := append([]float32(nil), tc.c[i*tc.ldc:(i+1)*tc.ldc]...)
					gemm(1, tc.a[i*tc.lda:], row)
					for j := range row {
						if !same(row[j], all[i*tc.ldc+j]) {
							t.Fatalf("%s m=%d: row %d col %d alone %g, batched %g", kind, m, i, j, row[j], all[i*tc.ldc+j])
						}
					}
				}
			}
		}
	})
}

// TestGemmHalfBBitIdenticalToOrderedReference holds GemmHalfB to the ordered
// reference over its decoded B, on each NN body: m 1…9 (the convert-in-load
// kernels up to halfLoadMaxRows rows, B decoded once above), every n 1…49
// against the sixteen-, eight-, four-lane and scalar steps, every k mod 4
// tail, every operand alignment, and B holding ±0, subnormals, ±Inf and NaN.
func TestGemmHalfBBitIdenticalToOrderedReference(t *testing.T) {
	eachNNBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(39))
		check := func(m, n, k int, alpha, beta float32, off int) {
			tc := newOrderedCase(rng, false, m, n, k, alpha, beta, off)
			if at, got, want := tc.mismatchHalf(tc.halfB(rng, off)); at >= 0 {
				t.Fatalf("m=%d n=%d k=%d alpha=%g beta=%g off=%d: c[%d] = %g (%#08x), ordered reference %g (%#08x)",
					m, n, k, alpha, beta, off, at, got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
		for _, alpha := range orderedAlphas {
			for _, beta := range orderedBetas {
				for m := 1; m <= 9; m++ {
					for _, n := range []int{1, 5, 37} {
						for _, k := range []int{0, 1, 3, 4, 6, 13, 32, 35} {
							check(m, n, k, alpha, beta, 0)
						}
					}
				}
			}
		}
		for _, m := range []int{1, 2, 3, 5} {
			for n := 1; n <= 49; n++ {
				for k := 0; k <= 9; k++ {
					for off := 0; off < 4; off++ {
						check(m, n, k, orderedAlphas[2], 0.5, off)
					}
				}
			}
		}
	})
}

// FuzzGemmOrderedReference lets the fuzzer pick shape, scalars and data seed;
// the seed's low bits also set how far the operands sit off their allocations.
// Every NN body runs each input, and an NN input runs again through GemmHalfB
// with a binary16 B.
func FuzzGemmOrderedReference(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(100), uint8(32), true, uint8(2), uint8(0))
	f.Add(int64(2), uint8(8), uint8(128), uint8(128), false, uint8(0), uint8(0))
	f.Add(int64(3), uint8(5), uint8(33), uint8(7), false, uint8(1), uint8(2))
	f.Add(int64(4), uint8(3), uint8(2), uint8(255), true, uint8(0), uint8(1))
	f.Add(int64(5), uint8(40), uint8(9), uint8(5), false, uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, m, n, k uint8, transB bool, alphaSel, betaSel uint8) {
		alpha := orderedAlphas[int(alphaSel)%len(orderedAlphas)]
		beta := orderedBetas[int(betaSel)%len(orderedBetas)]
		bodies := nnBodies()
		defer bodies[0].use()
		for _, body := range bodies {
			body.use()
			rng := rand.New(rand.NewSource(seed))
			tc := newOrderedCase(rng, transB, int(m), int(n), int(k), alpha, beta, int(seed&3))
			if at, got, want := tc.mismatch(); at >= 0 {
				t.Fatalf("%s: c[%d] = %g, ordered reference %g", body.name, at, got, want)
			}
			if transB {
				continue
			}
			tc = newOrderedCase(rng, false, int(m), int(n), int(k), alpha, beta, int(seed&3))
			if at, got, want := tc.mismatchHalf(tc.halfB(rng, int(seed&3))); at >= 0 {
				t.Fatalf("%s, binary16 B: c[%d] = %g, ordered reference %g", body.name, at, got, want)
			}
		}
	})
}
