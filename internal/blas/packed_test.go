package blas

import (
	"math/rand"
	"testing"
)

// TestGroupedStridedBatchedGemmMatchesPlainGemm: every (group, batch)
// problem must equal a standalone Gemm on the same operands, for mixed
// shapes across groups (the packed-attention use case: per-request m/n/k).
// The second round adds a group big enough to lift the call over
// minWorkParallel, so the problems go through the workers.
func TestGroupedStridedBatchedGemmMatchesPlainGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ transB, big bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		transB := tc.transB
		var groups []StridedBatch
		type ref struct {
			m, n, k int
			a, b, c []float32
		}
		var refs []ref
		for g := 0; g < 5; g++ {
			m, n, k := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
			count := 1 + rng.Intn(3)
			if g == 4 && tc.big {
				m, n, k, count = 64, 48, 64, 6
			}
			mk, kn := m*k, k*n
			a := make([]float32, count*mk)
			b := make([]float32, count*kn)
			c := make([]float32, count*m*n)
			for i := range a {
				a[i] = rng.Float32()*2 - 1
			}
			for i := range b {
				b[i] = rng.Float32()*2 - 1
			}
			ldb := n
			if transB {
				ldb = k
			}
			groups = append(groups, StridedBatch{
				M: m, N: n, K: k,
				A: a, Lda: k, StrideA: mk,
				B: b, Ldb: ldb, StrideB: kn,
				C: c, Ldc: n, StrideC: m * n,
				Count: count,
			})
			for i := 0; i < count; i++ {
				refs = append(refs, ref{m: m, n: n, k: k,
					a: a[i*mk : (i+1)*mk], b: b[i*kn : (i+1)*kn],
					c: make([]float32, m*n)})
			}
		}
		GroupedStridedBatchedGemm(false, transB, 1, 0, groups)

		ri := 0
		for gi, grp := range groups {
			for i := 0; i < grp.Count; i++ {
				r := refs[ri]
				ri++
				ldb := r.n
				if transB {
					ldb = r.k
				}
				Gemm(false, transB, r.m, r.n, r.k, 1, r.a, r.k, r.b, ldb, 0, r.c, r.n)
				got := grp.C[i*grp.StrideC : i*grp.StrideC+r.m*r.n]
				for j := range r.c {
					if got[j] != r.c[j] {
						t.Fatalf("transB=%v group %d batch %d elem %d: grouped %g != plain %g",
							transB, gi, i, j, got[j], r.c[j])
					}
				}
			}
		}
	}
}

// TestGroupedStridedBatchedGemmEmptyGroups: zero-count groups are legal and
// must leave everything untouched.
func TestGroupedStridedBatchedGemmEmptyGroups(t *testing.T) {
	c := []float32{7}
	GroupedStridedBatchedGemm(false, false, 1, 0, []StridedBatch{
		{M: 1, N: 1, K: 1, A: c, Lda: 1, B: c, Ldb: 1, C: c, Ldc: 1, Count: 0},
	})
	if c[0] != 7 {
		t.Fatal("empty group mutated C")
	}
	GroupedStridedBatchedGemm(false, false, 1, 0, nil)
}

// TestOneWorkerAllocatesNothing: on one P (testing.AllocsPerRun pins
// GOMAXPROCS to 1) a Gemm and a grouped call run inline — no closure, no
// index table — which is what a decode step's allocation count rests on.
func TestOneWorkerAllocatesNothing(t *testing.T) {
	const m, n, k, heads = 24, 32, 16, 4
	rng := rand.New(rand.NewSource(12))
	a, b, c := randSlice(rng, heads*m*k), randSlice(rng, heads*k*n), make([]float32, heads*m*n)
	groups := []StridedBatch{
		{M: m, N: n, K: k, A: a, Lda: k, StrideA: m * k, B: b, Ldb: n, StrideB: k * n, C: c, Ldc: n, StrideC: m * n, Count: heads},
		{M: 1, N: n, K: k, A: a, Lda: k, StrideA: k, B: b, Ldb: n, StrideB: k * n, C: c, Ldc: n, StrideC: n, Count: heads},
	}
	if got := testing.AllocsPerRun(10, func() {
		Gemm(false, false, m, n, k, 1, a, k, b, n, 0, c, n)
		GroupedStridedBatchedGemm(false, false, 1, 0, groups)
	}); got != 0 {
		t.Fatalf("Gemm + grouped call on one worker: %v allocs, want 0", got)
	}
}
