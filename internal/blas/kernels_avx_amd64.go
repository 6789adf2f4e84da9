//go:build !purego

package blas

import "repro/internal/cpufeat"

// The NN kernels on amd64 have three assembly bodies, picked as
// internal/cpufeat's package doc says: the four-lane SSE2 ones every amd64
// CPU runs (kernels_amd64.s), and eight-lane AVX and sixteen-lane AVX-512
// ones (kernels_avx_amd64.s). Every body keeps every output element's
// operation sequence. The NN kernels with a binary16 B (nnRows2H, nnRowH)
// have the AVX-512 and AVX bodies only, and need F16C besides: on a CPU
// without them GemmHalfB decodes B once and runs the float32 kernels, which
// gives the same bits.

// nnLanes, the pick, is how many columns a step of nnRows2 and nnRow takes:
// 16 (AVX-512), 8 (AVX) or 4 (SSE2).
var nnLanes = widestNNLanes()

// halfInLoad reports whether nnRows2H and nnRowH have a body on this CPU:
// the eight- or sixteen-lane one, with F16C.
func halfInLoad() bool { return cpufeat.F16C() && nnLanes >= 8 }

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

// gemmHalfBInLoad is GemmHalfB with B converted in the kernels' load, on one
// goroutine; halfInLoad must hold.
func gemmHalfBInLoad(m, n, k int, alpha float32, a []float32, lda int, b Half, ldb int, beta float32, c []float32, ldc int) {
	if !scaleC(alpha, beta, c, m, n, k, ldc) {
		return
	}
	i := 0
	for ; i+2 <= m; i += 2 {
		nnRows2H(n, k, alpha, a[i*lda:], a[(i+1)*lda:], b, ldb, c[i*ldc:], c[(i+1)*ldc:])
	}
	if i < m {
		nnRowH(n, k, alpha, a[i*lda:], b, ldb, c[i*ldc:])
	}
}

// nnRows2H is nnRows2 with B stored as binary16; halfInLoad must hold.
func nnRows2H(n, k int, alpha float32, a0, a1 []float32, b Half, ldb int, c0, c1 []float32) {
	if nnLanes == 16 {
		nnRows2HAVX512(n, k, alpha, a0, a1, b, ldb, c0, c1)
	} else {
		nnRows2HAVX(n, k, alpha, a0, a1, b, ldb, c0, c1)
	}
}

// nnRowH is nnRows2H for a single row.
func nnRowH(n, k int, alpha float32, a0 []float32, b Half, ldb int, c0 []float32) {
	if nnLanes == 16 {
		nnRowHAVX512(n, k, alpha, a0, b, ldb, c0)
	} else {
		nnRowHAVX(n, k, alpha, a0, b, ldb, c0)
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

//go:noescape
func nnRows2HAVX512(n, k int, alpha float32, a0, a1 []float32, b []uint16, ldb int, c0, c1 []float32)

//go:noescape
func nnRowHAVX512(n, k int, alpha float32, a0 []float32, b []uint16, ldb int, c0 []float32)

//go:noescape
func nnRows2HAVX(n, k int, alpha float32, a0, a1 []float32, b []uint16, ldb int, c0, c1 []float32)

//go:noescape
func nnRowHAVX(n, k int, alpha float32, a0 []float32, b []uint16, ldb int, c0 []float32)
