package blas

import (
	"math/bits"
	"sync"

	"repro/internal/tensor"
)

// FP16 GEMM route: GEMMs over operands held as binary16 STORAGE. Tensor Cores
// consume binary16 operands and accumulate in fp32 (§6.2.1), so this route
// takes operands as binary16 bit patterns, decodes them into fp32 scratch at
// the GEMM boundary (the "load conversion" a Tensor Core does in hardware),
// and runs the exact same fp32-accumulating kernels as the fp32 route.
// Because every binary16 value is exactly representable in float32, GemmF16
// over encoded operands is bit-identical to Gemm over the same operands
// rounded through tensor.RoundF16Into — the property the exactness tests pin,
// and the reason the serving path does not come through here for weights or
// activations: those are rounded once where they are produced and fed to
// Gemm directly, with no per-call decode. What serving still reads through
// this route is what really is binary16 storage — KV blocks and the cross
// memory (the B operands of decode attention). The decode scratch is
// host-side emulation cost and is not charged to the simulated device; on
// real hardware the conversion happens inside the MMA load, not in a
// separate buffer.

// Half is a binary16-encoded operand: each element is an IEEE 754 binary16
// bit pattern as produced by tensor.F32ToF16Bits. It aliases []uint16 so
// allocator buffers (Buffer.DataU16, Block.DataU16) are Halves without
// conversion.
type Half = []uint16

// f16Scratch pools the fp32 decode buffers so steady-state serving does not
// allocate per GEMM call. Capacities are powers of two: a KV operand grows by
// one row per decode step, and an exact-fit buffer would be outgrown — and
// reallocated — on every one of them.
var f16Scratch = sync.Pool{New: func() any { s := make([]float32, 0, 4096); return &s }}

func getF16Scratch(n int) (*[]float32, []float32) {
	p := f16Scratch.Get().(*[]float32)
	if cap(*p) < n {
		*p = make([]float32, 1<<bits.Len(uint(n-1)))
	}
	buf := (*p)[:n]
	return p, buf
}

func putF16Scratch(p *[]float32) { f16Scratch.Put(p) }

// operandElems returns how many elements of a (possibly leading-dimension-
// padded) GEMM operand must be decoded: the span touched by a rows×cols
// matrix with leading dimension ld, (rows-1)*ld + cols.
func operandElems(trans bool, rows, cols, ld int) int {
	if trans {
		rows, cols = cols, rows
	}
	if rows == 0 {
		return 0
	}
	return (rows-1)*ld + cols
}

// GemmF16 is Gemm with both operands stored as binary16: C = alpha·A·B +
// beta·C with fp32 accumulation into an fp32 C. Operand extents are decoded
// into pooled fp32 scratch and handed to the fp32 kernels, so accumulation
// order — and therefore bit-level results — match the fp32 route exactly.
func GemmF16(transA, transB bool, m, n, k int, alpha float32, a Half, lda int, b Half, ldb int, beta float32, c []float32, ldc int) {
	na := operandElems(transA, m, k, lda)
	nb := operandElems(transB, k, n, ldb)
	pa, af := getF16Scratch(na)
	pb, bf := getF16Scratch(nb)
	tensor.DecodeF16Slice(af, a[:na])
	tensor.DecodeF16Slice(bf, b[:nb])
	Gemm(transA, transB, m, n, k, alpha, af, lda, bf, ldb, beta, c, ldc)
	putF16Scratch(pa)
	putF16Scratch(pb)
}

// GemmF16A32 is GemmF16 with an fp32 A operand (already binary16-valued, e.g.
// softmax probabilities rounded through RoundSliceF16) against a binary16 B.
// It models the mixed case where one Tensor Core operand comes straight from
// a prior kernel's fp16 output register.
func GemmF16A32(transA, transB bool, m, n, k int, alpha float32, a []float32, lda int, b Half, ldb int, beta float32, c []float32, ldc int) {
	nb := operandElems(transB, k, n, ldb)
	pb, bf := getF16Scratch(nb)
	tensor.DecodeF16Slice(bf, b[:nb])
	Gemm(transA, transB, m, n, k, alpha, a, lda, bf, ldb, beta, c, ldc)
	putF16Scratch(pb)
}

// StridedBatchF16 is one group of a grouped strided-batched fp16 GEMM.
// Exactly one of A/AF and one of B/BF must be non-nil: the Half field when
// the operand lives in binary16 storage (weights, KV blocks), the fp32 field
// when it is a binary16-valued fp32 buffer (softmax probabilities). C always
// accumulates in fp32.
type StridedBatchF16 struct {
	M, N, K int

	A       Half
	AF      []float32
	Lda     int
	StrideA int

	B       Half
	BF      []float32
	Ldb     int
	StrideB int

	C       []float32
	Ldc     int
	StrideC int

	Count int
}

// unionElems returns the element span covered by all Count strided problems
// of one operand: (Count-1)*stride + extent of a single problem.
func unionElems(trans bool, rows, cols, ld, stride, count int) int {
	if count == 0 {
		return 0
	}
	one := operandElems(trans, rows, cols, ld)
	if one == 0 {
		return 0
	}
	return (count-1)*stride + one
}

// f16GroupScratch is the per-call state of GroupedStridedBatchedGemmF16 —
// the fp32 group descriptors and the pooled decode buffers they point into —
// pooled so a steady-state decode step allocates nothing here.
type f16GroupScratch struct {
	plain []StridedBatch
	pins  []*[]float32
}

var f16GroupPool = sync.Pool{New: func() any { return new(f16GroupScratch) }}

// decode expands a Half operand's strided union into pooled fp32 scratch.
func (s *f16GroupScratch) decode(h Half, n int) []float32 {
	p, buf := getF16Scratch(n)
	tensor.DecodeF16Slice(buf, h[:n])
	s.pins = append(s.pins, p)
	return buf
}

// GroupedStridedBatchedGemmF16 runs variable-shape groups of strided-batched
// binary16 GEMMs with fp32 accumulation. Each group's Half operands are
// decoded once (the whole strided union, not per sub-problem) and the result
// is computed by GroupedStridedBatchedGemm, keeping the fp32 route's
// accumulation order and parallel schedule bit for bit. AF/BF operands
// (binary16-valued fp32) are passed through untouched.
func GroupedStridedBatchedGemmF16(transA, transB bool, alpha, beta float32, groups []StridedBatchF16) {
	if len(groups) == 0 {
		return
	}
	s := f16GroupPool.Get().(*f16GroupScratch)
	if cap(s.plain) < len(groups) {
		s.plain = make([]StridedBatch, len(groups))
	}
	plain := s.plain[:len(groups)]
	for i := range groups {
		g := &groups[i]
		af := g.AF
		if af == nil {
			af = s.decode(g.A, unionElems(transA, g.M, g.K, g.Lda, g.StrideA, g.Count))
		}
		bf := g.BF
		if bf == nil {
			bf = s.decode(g.B, unionElems(transB, g.K, g.N, g.Ldb, g.StrideB, g.Count))
		}
		plain[i] = StridedBatch{
			M: g.M, N: g.N, K: g.K,
			A: af, Lda: g.Lda, StrideA: g.StrideA,
			B: bf, Ldb: g.Ldb, StrideB: g.StrideB,
			C: g.C, Ldc: g.Ldc, StrideC: g.StrideC,
			Count: g.Count,
		}
	}
	GroupedStridedBatchedGemm(transA, transB, alpha, beta, plain)
	for i, p := range s.pins {
		putF16Scratch(p)
		s.pins[i] = nil
	}
	s.pins = s.pins[:0]
	clear(plain) // drop the callers' operand and output references
	f16GroupPool.Put(s)
}

// EncodeHalf rounds src through binary16 into a freshly allocated Half.
// Convenience for one-time weight encoding; hot paths should encode into
// reused buffers with tensor.EncodeF16Slice.
func EncodeHalf(src []float32) Half {
	h := make(Half, len(src))
	tensor.EncodeF16Slice(h, src)
	return h
}
