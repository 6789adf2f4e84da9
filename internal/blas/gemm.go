// Package blas implements the dense linear-algebra routines the transformer
// runtime needs: single-precision GEMM with optional transposes, plus the
// batched and strided-batched variants used by multi-head attention
// (batched Q·Kᵀ and scores·V, Fig. 3 "batched stride gemm3/gemm4").
//
// On the paper's system these map to cuBLAS; here they are pure-Go
// register-unrolled micro-kernels over row-major operands. A large Gemm
// splits its rows across goroutines and a batched call its problems, up to
// GOMAXPROCS of them, which plays the role of the GPU's SM-level parallelism
// for the functional runtime; on one P everything runs inline and allocates
// nothing. Every kernel keeps each output element's float32 operation
// sequence fixed (see gemmNN and gemmNT), so results do not depend on how a
// problem is batched, split or unrolled. Timing of GPU GEMMs for the
// experiments is handled separately by the analytic model in internal/perf.
package blas

import (
	"fmt"
	"runtime"
	"sync"
)

// Gemm computes C = alpha * op(A) * op(B) + beta * C where op is identity
// or transpose, with row-major storage and leading dimensions lda/ldb/ldc.
// op(A) is m×k and op(B) is k×n; C is m×n.
//
// The call panics on inconsistent dimensions — dimension errors are
// programming bugs in graph construction, not runtime conditions.
func Gemm(transA, transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	checkGemmArgs(transA, transB, m, n, k, len(a), lda, len(b), ldb, len(c), ldc)
	if !scaleC(alpha, beta, c, m, n, k, ldc) {
		return
	}
	// Below this many rows the goroutine hand-off costs more than it saves.
	const minRowsParallel = 16
	workers := min(runtime.GOMAXPROCS(0), m)
	if workers <= 1 || m < minRowsParallel {
		gemmBlock(transA, transB, 0, m, n, k, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	// Even chunks, so only the last one can end on an unpaired row.
	chunk := ((m+workers-1)/workers + 1) &^ 1
	var wg sync.WaitGroup
	for i0 := 0; i0 < m; i0 += chunk {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gemmBlock(transA, transB, i0, min(i0+chunk, m), n, k, alpha, a, lda, b, ldb, c, ldc)
		}()
	}
	wg.Wait()
}

// checkGemmArgs panics unless an m×n×k problem with these leading dimensions
// fits operands of na, nb and nc elements.
func checkGemmArgs(transA, transB bool, m, n, k, na, lda, nb, ldb, nc, ldc int) {
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("blas: negative dimension m=%d n=%d k=%d", m, n, k))
	}
	aRows, aCols := m, k
	if transA {
		aRows, aCols = k, m
	}
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

// gemmBlock accumulates alpha*op(A)*op(B) into C for rows [i0,i1).
func gemmBlock(transA, transB bool, i0, i1, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	switch {
	case !transA && !transB:
		gemmNN(i0, i1, n, k, alpha, a, lda, b, ldb, c, ldc)
	case !transA && transB:
		gemmNT(i0, i1, n, k, alpha, a, lda, b, ldb, c, ldc)
	case transA && !transB:
		gemmTN(i0, i1, n, k, alpha, a, lda, b, ldb, c, ldc)
	default:
		gemmTT(i0, i1, n, k, alpha, a, lda, b, ldb, c, ldc)
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
// columns: six loads and two stores per eight multiply-adds, against nine
// per four for a one-p, four-row sweep. The odd last row runs the same
// 4-p unroll alone. Columns are not blocked: the six streams are sequential,
// and splitting wide rows (n = 3072, 30000) into L1-sized segments measured
// no faster.
func gemmNN(i0, i1, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	i := i0
	for ; i+2 <= i1; i += 2 {
		nnRows2(n, k, alpha, a[i*lda:], a[(i+1)*lda:], b, ldb, c[i*ldc:], c[(i+1)*ldc:])
	}
	if i < i1 {
		nnRow(n, k, alpha, a[i*lda:], b, ldb, c[i*ldc:])
	}
}

// nnRows2 adds alpha*(a0;a1)*B to the n-wide rows c0 and c1.
func nnRows2(n, k int, alpha float32, a0, a1, b []float32, ldb int, c0, c1 []float32) {
	a0, a1 = a0[:k], a1[:k]
	c0, c1 = c0[:n], c1[:n]
	p := 0
	for ; p+4 <= k; p += 4 {
		x00, x01, x02, x03 := alpha*a0[p], alpha*a0[p+1], alpha*a0[p+2], alpha*a0[p+3]
		x10, x11, x12, x13 := alpha*a1[p], alpha*a1[p+1], alpha*a1[p+2], alpha*a1[p+3]
		b0, b1, b2, b3 := b[p*ldb:][:n], b[(p+1)*ldb:][:n], b[(p+2)*ldb:][:n], b[(p+3)*ldb:][:n]
		for j := range c0 {
			v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
			c0[j] = c0[j] + x00*v0 + x01*v1 + x02*v2 + x03*v3
			c1[j] = c1[j] + x10*v0 + x11*v1 + x12*v2 + x13*v3
		}
	}
	for ; p < k; p++ {
		x0, x1 := alpha*a0[p], alpha*a1[p]
		bp := b[p*ldb:][:n]
		for j := range c0 {
			v := bp[j]
			c0[j] += x0 * v
			c1[j] += x1 * v
		}
	}
}

// nnRow is nnRows2 for a single row: the odd last row of a call, and every
// row of a one-row (decode step) call.
func nnRow(n, k int, alpha float32, a0, b []float32, ldb int, c0 []float32) {
	a0 = a0[:k]
	c0 = c0[:n]
	p := 0
	for ; p+4 <= k; p += 4 {
		x0, x1, x2, x3 := alpha*a0[p], alpha*a0[p+1], alpha*a0[p+2], alpha*a0[p+3]
		b0, b1, b2, b3 := b[p*ldb:][:n], b[(p+1)*ldb:][:n], b[(p+2)*ldb:][:n], b[(p+3)*ldb:][:n]
		for j := range c0 {
			c0[j] = c0[j] + x0*b0[j] + x1*b1[j] + x2*b2[j] + x3*b3[j]
		}
	}
	for ; p < k; p++ {
		x0 := alpha * a0[p]
		bp := b[p*ldb:][:n]
		for j := range c0 {
			c0[j] += x0 * bp[j]
		}
	}
}

// gemmNT: C[i,j] += alpha * sum_p A[i,p]*B[j,p] — dot products of rows, the
// layout attention uses for Q·Kᵀ. Each dot product is four partial sums over
// p = 0,1,2,3 (mod 4), folded as ((s0+s1)+s2)+s3, then the k mod 4 tail in
// order — the NT half of the order invariant. Two B rows share each pass
// over the A row (12 loads per 8 multiply-adds instead of 16); their sums
// never mix, so a column's result does not depend on which pass computed it.
func gemmNT(i0, i1, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	for i := i0; i < i1; i++ {
		arow := a[i*lda:][:k]
		crow := c[i*ldc:][:n]
		j := 0
		for ; j+2 <= n; j += 2 {
			s, t := dot2(arow, b[j*ldb:], b[(j+1)*ldb:])
			crow[j] += alpha * s
			crow[j+1] += alpha * t
		}
		if j < n { // odd last column: the pair kernel on one row twice
			s, _ := dot2(arow, b[j*ldb:], b[j*ldb:])
			crow[j] += alpha * s
		}
	}
}

// dot2 returns x·y and x·z over len(x) elements in gemmNT's order.
func dot2(x, y, z []float32) (float32, float32) {
	y, z = y[:len(x)], z[:len(x)]
	var s0, s1, s2, s3, t0, t1, t2, t3 float32
	p := 0
	for ; p+4 <= len(x); p += 4 {
		x4, y4, z4 := x[p:p+4:p+4], y[p:p+4:p+4], z[p:p+4:p+4]
		s0 += x4[0] * y4[0]
		s1 += x4[1] * y4[1]
		s2 += x4[2] * y4[2]
		s3 += x4[3] * y4[3]
		t0 += x4[0] * z4[0]
		t1 += x4[1] * z4[1]
		t2 += x4[2] * z4[2]
		t3 += x4[3] * z4[3]
	}
	s, t := s0+s1+s2+s3, t0+t1+t2+t3
	for ; p < len(x); p++ {
		s += x[p] * y[p]
		t += x[p] * z[p]
	}
	return s, t
}

func gemmTN(i0, i1, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	for i := i0; i < i1; i++ {
		crow := c[i*ldc:]
		for p := 0; p < k; p++ {
			av := alpha * a[p*lda+i]
			if av == 0 {
				continue
			}
			brow := b[p*ldb:]
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
}

func gemmTT(i0, i1, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	for i := i0; i < i1; i++ {
		crow := c[i*ldc:]
		for j := 0; j < n; j++ {
			var sum float32
			for p := 0; p < k; p++ {
				sum += a[p*lda+i] * b[j*ldb+p]
			}
			crow[j] += alpha * sum
		}
	}
}
