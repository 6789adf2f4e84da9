//go:build amd64 && !purego

package blas

// The three inner kernels in SSE2 assembly (kernels_amd64.s). Each keeps the
// float32 operation sequence of its Go statement in kernels_generic.go, which
// is the portable build and the readable definition. They check no bounds:
// every caller has been through checkGemmArgs.

//go:noescape
func nnRows2(n, k int, alpha float32, a0, a1, b []float32, ldb int, c0, c1 []float32)

//go:noescape
func nnRow(n, k int, alpha float32, a0, b []float32, ldb int, c0 []float32)

//go:noescape
func dot2(x, y, z []float32) (float32, float32)
