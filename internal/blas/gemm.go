// Package blas implements the dense linear-algebra routines the transformer
// runtime needs: single-precision GEMM with an optionally transposed B, plus
// the batched and strided-batched variants used by multi-head attention
// (batched Q·Kᵀ and scores·V, Fig. 3 "batched stride gemm3/gemm4").
//
// On the paper's system these map to cuBLAS; here they are micro-kernels over
// row-major operands. A large Gemm splits its rows across goroutines and a
// batched call its problems, up to GOMAXPROCS of them, which plays the role
// of the GPU's SM-level parallelism for the functional runtime; on one P
// everything runs inline and allocates nothing. Every kernel keeps each
// output element's float32 operation sequence fixed (see gemmNN and gemmNT)
// — one rounded multiply, then one rounded add, never a fused multiply-add —
// so results do not depend on how a problem is batched, split or unrolled,
// nor on the architecture.
//
// The three inner loops (nnRows2, nnRow, dot2) are Go on every target but
// amd64 and under -tags purego (kernels_generic.go, the readable definition;
// it writes each product as float32(x*y), which forbids the compiler to fuse
// it into the following add, as it may on arm64 and at GOAMD64=v3), and
// assembly on amd64. The rule there: NN uses the widest lanes the CPU has, NT
// keeps four partials, no FMA, and the probe picks the body. In NN a lane is
// a column of C, an independent chain, so any width gives the same bits: the
// two NN kernels have sixteen-lane AVX-512 and eight-lane AVX bodies
// (kernels_avx_amd64.s) beside baseline SSE2 ones (kernels_amd64.s), and one
// CPUID/XGETBV probe at start-up (internal/cpufeat) picks AVX-512 when the
// CPU has AVX-512F and the OS saves ZMM state, else AVX when it has AVX2 and
// the OS saves YMM state — there is no option. In NT the four lanes are
// dot2's four partial sums; eight would be eight partials, another fold, so
// dot2 is SSE2 on every amd64 CPU. A fused multiply-add rounds once where the
// invariant rounds twice, so no body uses one.
// Everything else in the package is Go on every target. Timing of GPU GEMMs
// for the experiments is handled separately by the analytic model in
// internal/perf.
package blas

import (
	"fmt"
	"runtime"
	"sync"
)

// Gemm computes C = alpha * A * op(B) + beta * C where op(B) is B or, with
// transB, Bᵀ, with row-major storage and leading dimensions lda/ldb/ldc. A is
// m×k and op(B) is k×n; C is m×n.
//
// The call panics on inconsistent dimensions — dimension errors are
// programming bugs in graph construction, not runtime conditions — and on
// transA: no caller stores A transposed, so that kernel does not exist. The
// flag stays in the signature, which mirrors the cuBLAS call.
func Gemm(transA, transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	checkGemmArgs(transA, transB, m, n, k, len(a), lda, len(b), ldb, len(c), ldc)
	if !scaleC(alpha, beta, c, m, n, k, ldc) {
		return
	}
	// Below this many rows the goroutine hand-off costs more than it saves.
	const minRowsParallel = 16
	workers := min(runtime.GOMAXPROCS(0), m)
	if workers <= 1 || m < minRowsParallel {
		gemmBlock(transB, 0, m, n, k, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	// Even chunks, so only the last one can end on an unpaired row.
	chunk := ((m+workers-1)/workers + 1) &^ 1
	var wg sync.WaitGroup
	for i0 := 0; i0 < m; i0 += chunk {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gemmBlock(transB, i0, min(i0+chunk, m), n, k, alpha, a, lda, b, ldb, c, ldc)
		}()
	}
	wg.Wait()
}

// checkGemmArgs panics unless an m×n×k problem with these leading dimensions
// fits operands of na, nb and nc elements, A untransposed.
func checkGemmArgs(transA, transB bool, m, n, k, na, lda, nb, ldb, nc, ldc int) {
	if transA {
		panic("blas: transposed A is not supported")
	}
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("blas: negative dimension m=%d n=%d k=%d", m, n, k))
	}
	aRows, aCols := m, k
	bRows, bCols := k, n
	if transB {
		bRows, bCols = n, k
	}
	if lda < aCols || ldb < bCols || ldc < n {
		panic(fmt.Sprintf("blas: leading dimension too small lda=%d ldb=%d ldc=%d", lda, ldb, ldc))
	}
	if aRows > 0 && na < (aRows-1)*lda+aCols {
		panic(fmt.Sprintf("blas: A too short: len=%d need=%d", na, (aRows-1)*lda+aCols))
	}
	if bRows > 0 && nb < (bRows-1)*ldb+bCols {
		panic(fmt.Sprintf("blas: B too short: len=%d need=%d", nb, (bRows-1)*ldb+bCols))
	}
	if m > 0 && nc < (m-1)*ldc+n {
		panic(fmt.Sprintf("blas: C too short: len=%d need=%d", nc, (m-1)*ldc+n))
	}
}

// scaleC applies C = beta*C and reports whether a product remains to be
// accumulated into it.
func scaleC(alpha, beta float32, c []float32, m, n, k, ldc int) bool {
	switch beta {
	case 1:
	case 0:
		for i := 0; i < m; i++ {
			clear(c[i*ldc : i*ldc+n])
		}
	default:
		for i := 0; i < m; i++ {
			row := c[i*ldc : i*ldc+n]
			for j := range row {
				row[j] *= beta
			}
		}
	}
	return m > 0 && n > 0 && k > 0 && alpha != 0
}

// gemmBlock accumulates alpha*A*op(B) into C for rows [i0,i1).
func gemmBlock(transB bool, i0, i1, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	if transB {
		gemmNT(i0, i1, n, k, alpha, a, lda, b, ldb, c, ldc)
	} else {
		gemmNN(i0, i1, n, k, alpha, a, lda, b, ldb, c, ldc)
	}
}

// gemmNN: C[i,j] += sum_p (alpha*A[i,p])*B[p,j], accumulated into C one
// rounded multiply and one rounded add at a time with p strictly ascending.
// That per-element operation sequence is the package's order invariant: it
// does not depend on m, on which kernel below handles a row, or on how p is
// unrolled, so a row's result is bit-identical whatever it is batched with —
// what batched == solo, packed == padded and the golden digests rest on.
//
// Two rows advance together through four values of p per pass over the
// columns (nnRows2), so each element of B loaded serves two rows and each
// element of C loaded or stored serves four p. The odd last row runs the same
// 4-p unroll alone (nnRow). On amd64 both take sixteen columns per step when
// the probe found AVX-512F, eight when it found AVX2 and four otherwise,
// which moves no bits. Columns are
// not blocked: the six streams are sequential, and splitting wide rows
// (n = 3072, 30000) into L1-sized segments measured no faster.
func gemmNN(i0, i1, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	i := i0
	for ; i+2 <= i1; i += 2 {
		nnRows2(n, k, alpha, a[i*lda:], a[(i+1)*lda:], b, ldb, c[i*ldc:], c[(i+1)*ldc:])
	}
	if i < i1 {
		nnRow(n, k, alpha, a[i*lda:], b, ldb, c[i*ldc:])
	}
}

// gemmNT: C[i,j] += alpha * sum_p A[i,p]*B[j,p] — dot products of rows, the
// layout attention uses for Q·Kᵀ. Each dot product is four partial sums over
// p = 0,1,2,3 (mod 4), folded as ((s0+s1)+s2)+s3, then the k mod 4 tail in
// order — the NT half of the order invariant. Two B rows share each pass
// over the A row (dot2); their sums never mix, so a column's result does not
// depend on which pass computed it.
func gemmNT(i0, i1, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	for i := i0; i < i1; i++ {
		arow := a[i*lda:][:k]
		crow := c[i*ldc:][:n]
		j := 0
		for ; j+2 <= n; j += 2 {
			s, t := dot2(arow, b[j*ldb:], b[(j+1)*ldb:])
			crow[j] += float32(alpha * s)
			crow[j+1] += float32(alpha * t)
		}
		if j < n { // odd last column: the pair kernel on one row twice
			s, _ := dot2(arow, b[j*ldb:], b[j*ldb:])
			crow[j] += float32(alpha * s)
		}
	}
}
