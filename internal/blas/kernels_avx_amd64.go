//go:build !purego

package blas

// The NN kernels on amd64 have two assembly bodies: the four-lane SSE2 ones
// every amd64 CPU runs (kernels_amd64.s) and eight-lane AVX ones
// (kernels_avx_amd64.s). A CPUID probe picks one once, at start-up; there is
// no option. Both keep every output element's operation sequence, so the
// pick moves no bits, only time.

// nnAVX is whether nnRows2 and nnRow run the AVX bodies. Only tests change it,
// to run every body this CPU has.
var nnAVX = haveAVX2()

// nnRows2 adds alpha*(a0;a1)*B to the n-wide rows c0 and c1.
func nnRows2(n, k int, alpha float32, a0, a1, b []float32, ldb int, c0, c1 []float32) {
	if nnAVX {
		nnRows2AVX(n, k, alpha, a0, a1, b, ldb, c0, c1)
		return
	}
	nnRows2SSE2(n, k, alpha, a0, a1, b, ldb, c0, c1)
}

// nnRow is nnRows2 for a single row.
func nnRow(n, k int, alpha float32, a0, b []float32, ldb int, c0 []float32) {
	if nnAVX {
		nnRowAVX(n, k, alpha, a0, b, ldb, c0)
		return
	}
	nnRowSSE2(n, k, alpha, a0, b, ldb, c0)
}

//go:noescape
func nnRows2AVX(n, k int, alpha float32, a0, a1, b []float32, ldb int, c0, c1 []float32)

//go:noescape
func nnRowAVX(n, k int, alpha float32, a0, b []float32, ldb int, c0 []float32)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE, then XCR0 bits 1 and 2). The
// bodies need AVX2 for VBROADCASTSS from a register; the rest is AVX.
func haveAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
