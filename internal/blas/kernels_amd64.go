//go:build amd64 && !purego

package blas

// The SSE2 bodies of the three inner kernels (kernels_amd64.s). Each keeps the
// float32 operation sequence of its Go statement in kernels_generic.go, which
// is the portable build and the readable definition. They check no bounds:
// every caller has been through checkGemmArgs. The two NN ones run when the
// CPU lacks AVX2 (kernels_avx_amd64.go); dot2 runs everywhere.

//go:noescape
func nnRows2SSE2(n, k int, alpha float32, a0, a1, b []float32, ldb int, c0, c1 []float32)

//go:noescape
func nnRowSSE2(n, k int, alpha float32, a0, b []float32, ldb int, c0 []float32)

//go:noescape
func dot2(x, y, z []float32) (float32, float32)
