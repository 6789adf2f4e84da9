package blas

import (
	"fmt"
	"runtime"
	"sync"
)

// StridedBatch describes one group of a grouped strided-batched GEMM: Count
// equally-shaped problems laid out at fixed strides. Grouping problems with
// different shapes into one call is what variable-length (packed) attention
// needs — each request contributes one group of `heads` GEMMs whose m/n/k
// depend on that request's length, so no problem is ever padded to a batch
// maximum. This is the pure-Go analogue of cublasGemmGroupedBatchedEx.
type StridedBatch struct {
	M, N, K int
	A       []float32
	Lda     int
	StrideA int
	B       []float32
	Ldb     int
	StrideB int
	C       []float32
	Ldc     int
	StrideC int
	Count   int
}

// check panics unless every problem of group g fits its operands. Strides
// are non-negative, so the last problem reaches furthest.
func (s *StridedBatch) check(g int, transA, transB bool) {
	if s.Count < 0 {
		panic(fmt.Sprintf("blas: group %d has negative count %d", g, s.Count))
	}
	if s.StrideA < 0 || s.StrideB < 0 || s.StrideC < 0 {
		panic(fmt.Sprintf("blas: group %d has a negative stride", g))
	}
	if s.Count == 0 {
		return
	}
	last := s.Count - 1
	checkGemmArgs(transA, transB, s.M, s.N, s.K,
		len(s.A)-last*s.StrideA, s.Lda, len(s.B)-last*s.StrideB, s.Ldb, len(s.C)-last*s.StrideC, s.Ldc)
}

// run computes problem i of the group, serially.
func (s *StridedBatch) run(transB bool, alpha, beta float32, i int) {
	c := s.C[i*s.StrideC:]
	if scaleC(alpha, beta, c, s.M, s.N, s.K, s.Ldc) {
		gemmBlock(transB, 0, s.M, s.N, s.K, alpha, s.A[i*s.StrideA:], s.Lda, s.B[i*s.StrideB:], s.Ldb, c, s.Ldc)
	}
}

// GroupedStridedBatchedGemm performs, for every group g and every batch
// index i in [0, g.Count):
//
//	C_gi = alpha * op(A_gi) * op(B_gi) + beta * C_gi
//
// with A_gi = g.A[i*g.StrideA:], etc. All groups share the transpose flags
// and scalars; shapes vary per group. Every group is validated before any C
// is written. Each problem runs serially — attention's problems are many and
// small — and problems are spread over up to GOMAXPROCS goroutines; with one
// worker, or too little work to pay for the hand-off (a decode step's
// attention), the groups are walked in order, in place.
func GroupedStridedBatchedGemm(transA, transB bool, alpha, beta float32, groups []StridedBatch) {
	// Below this many multiply-adds in the whole call (≈ 0.1 ms of kernel
	// time) feeding problems to workers costs more than it saves.
	const minWorkParallel = 1 << 20
	total, work := 0, 0
	for g := range groups {
		s := &groups[g]
		s.check(g, transA, transB)
		total += s.Count
		work += s.Count * s.M * s.N * s.K
	}
	workers := min(runtime.GOMAXPROCS(0), total)
	if workers <= 1 || work < minWorkParallel {
		for g := range groups {
			for i := 0; i < groups[g].Count; i++ {
				groups[g].run(transB, alpha, beta, i)
			}
		}
		return
	}
	type problem struct{ g, i int }
	next := make(chan problem)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range next {
				groups[p.g].run(transB, alpha, beta, p.i)
			}
		}()
	}
	for g := range groups {
		for i := 0; i < groups[g].Count; i++ {
			next <- problem{g, i}
		}
	}
	close(next)
	wg.Wait()
}
