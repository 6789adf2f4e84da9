package blas

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
