package blas

import "fmt"

// StridedBatchedGemm performs batchCount independent GEMMs:
//
//	C_b = alpha * op(A_b) * op(B_b) + beta * C_b
//
// where A_b = a[b*strideA:], etc. This is the cublasGemmStridedBatched
// analogue used for attention's per-head Q·Kᵀ and scores·V products
// ("batched stride gemm3/gemm4" in Fig. 3): one group of a grouped call.
func StridedBatchedGemm(transA, transB bool, m, n, k int, alpha float32,
	a []float32, lda int, strideA int,
	b []float32, ldb int, strideB int,
	beta float32,
	c []float32, ldc int, strideC int,
	batchCount int) {

	GroupedStridedBatchedGemm(transA, transB, alpha, beta, []StridedBatch{{
		M: m, N: n, K: k,
		A: a, Lda: lda, StrideA: strideA,
		B: b, Ldb: ldb, StrideB: strideB,
		C: c, Ldc: ldc, StrideC: strideC,
		Count: batchCount,
	}})
}

// BatchedGemm performs independent GEMMs over explicit slices. All problems
// share the same dims and transpose flags.
func BatchedGemm(transA, transB bool, m, n, k int, alpha float32,
	as, bs [][]float32, beta float32, cs [][]float32) {

	if len(as) != len(bs) || len(as) != len(cs) {
		panic(fmt.Sprintf("blas: batched slice counts differ: %d %d %d", len(as), len(bs), len(cs)))
	}
	lda, ldb, ldc := k, n, n
	if transB {
		ldb = k
	}
	groups := make([]StridedBatch, len(as))
	for i := range groups {
		groups[i] = StridedBatch{M: m, N: n, K: k, A: as[i], Lda: lda, B: bs[i], Ldb: ldb, C: cs[i], Ldc: ldc, Count: 1}
	}
	GroupedStridedBatchedGemm(transA, transB, alpha, beta, groups)
}
