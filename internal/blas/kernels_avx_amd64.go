//go:build !purego

package blas

import "repro/internal/cpufeat"

// The NN kernels on amd64 have three assembly bodies: the four-lane SSE2 ones
// every amd64 CPU runs (kernels_amd64.s), and eight-lane AVX and sixteen-lane
// AVX-512 ones (kernels_avx_amd64.s). The probe (internal/cpufeat) picks the
// widest the CPU has, once, at start-up; there is no option. Every body keeps
// every output element's operation sequence, so the pick moves no bits, only
// time.

// nnLanes is how many columns a step of nnRows2 and nnRow takes: 16
// (AVX-512), 8 (AVX) or 4 (SSE2). Only tests change it, to run every body
// this CPU has.
var nnLanes = widestNNLanes()

func widestNNLanes() int {
	switch {
	case cpufeat.AVX512():
		return 16
	case cpufeat.AVX2():
		return 8
	}
	return 4
}

// nnRows2 adds alpha*(a0;a1)*B to the n-wide rows c0 and c1.
func nnRows2(n, k int, alpha float32, a0, a1, b []float32, ldb int, c0, c1 []float32) {
	switch nnLanes {
	case 16:
		nnRows2AVX512(n, k, alpha, a0, a1, b, ldb, c0, c1)
	case 8:
		nnRows2AVX(n, k, alpha, a0, a1, b, ldb, c0, c1)
	default:
		nnRows2SSE2(n, k, alpha, a0, a1, b, ldb, c0, c1)
	}
}

// nnRow is nnRows2 for a single row.
func nnRow(n, k int, alpha float32, a0, b []float32, ldb int, c0 []float32) {
	switch nnLanes {
	case 16:
		nnRowAVX512(n, k, alpha, a0, b, ldb, c0)
	case 8:
		nnRowAVX(n, k, alpha, a0, b, ldb, c0)
	default:
		nnRowSSE2(n, k, alpha, a0, b, ldb, c0)
	}
}

//go:noescape
func nnRows2AVX512(n, k int, alpha float32, a0, a1, b []float32, ldb int, c0, c1 []float32)

//go:noescape
func nnRowAVX512(n, k int, alpha float32, a0, b []float32, ldb int, c0 []float32)

//go:noescape
func nnRows2AVX(n, k int, alpha float32, a0, a1, b []float32, ldb int, c0, c1 []float32)

//go:noescape
func nnRowAVX(n, k int, alpha float32, a0, b []float32, ldb int, c0 []float32)
