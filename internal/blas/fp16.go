package blas

import (
	"math/bits"
	"sync"

	"repro/internal/tensor"
)

// FP16 GEMM route: GEMMs over operands held as binary16 STORAGE. Tensor Cores
// consume binary16 operands and accumulate in fp32 (§6.2.1), so this route
// takes operands as binary16 bit patterns, converts them to fp32 at the GEMM
// boundary (the "load conversion" a Tensor Core does in hardware), and keeps
// the fp32 route's per-element operation sequence. Because every binary16
// value is exactly representable in float32, the conversion moves no bits:
// GemmF16 over encoded operands is bit-identical to Gemm over the same
// operands rounded through tensor.RoundF16Into, and GemmHalfB to Gemm over
// the decoded B.
//
// Serving uses GemmHalfB for the decoder's weights, which the fp16 route
// stores as binary16 where HalfInLoad holds so that a decode step streams
// half the bytes; its activations are rounded once where they are produced
// and stay fp32. What else is binary16 storage in serving — KV blocks and
// the cross memory — is decoded by the one decode-attention kernel
// (kernels.DecodeWorkspace.Attention) into its own scratch, so GemmF16 is the
// oracle and the ledger's probe, not a serving call. The decode scratch is
// host-side emulation cost and is not charged to the simulated device; on
// real hardware the conversion happens inside the MMA load, not in a separate
// buffer.

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
	checkGemmArgs(transA, transB, m, n, k, len(a), lda, len(b), ldb, len(c), ldc)
	na := operandElems(false, m, k, lda)
	nb := operandElems(transB, k, n, ldb)
	pa, af := getF16Scratch(na)
	pb, bf := getF16Scratch(nb)
	tensor.DecodeF16Slice(af, a[:na])
	tensor.DecodeF16Slice(bf, b[:nb])
	Gemm(transA, transB, m, n, k, alpha, af, lda, bf, ldb, beta, c, ldc)
	putF16Scratch(pa)
	putF16Scratch(pb)
}

// halfLoadMaxRows is the most rows GemmHalfB runs with B converted in the
// load; above it B is decoded once into pooled scratch and the fp32 kernels
// run. A loaded B element serves at most two rows, so converting in the load
// costs a conversion per element every two rows, where decoding once costs
// one conversion and a store and a load per element — a price that pays only
// while B streams from beyond L2, as a decode step's weights do
// (BenchmarkDecodeStepWeights).
const halfLoadMaxRows = 8

// GemmHalfB is Gemm(false, false, …) with B stored as binary16: C = alpha·A·B
// + beta·C, A m×k and C m×n in fp32, B k×n. Every output element keeps Gemm's
// operation sequence (gemmNN) on B's exactly converted values, so the result
// is bit-identical to Gemm over tensor.DecodeF16Slice of B. Up to
// halfLoadMaxRows rows, where HalfInLoad holds, the NN kernels convert B in
// their load (nnRows2H, nnRowH): a decode step reads half the bytes. Above
// it, and everywhere else, B is decoded once.
func GemmHalfB(m, n, k int, alpha float32, a []float32, lda int, b Half, ldb int, beta float32, c []float32, ldc int) {
	checkGemmArgs(false, false, m, n, k, len(a), lda, len(b), ldb, len(c), ldc)
	if m > halfLoadMaxRows || !halfInLoad() {
		gemmHalfBDecoded(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	}
	gemmHalfBInLoad(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// HalfInLoad reports whether GemmHalfB converts B in the NN kernels' load on
// this CPU and build: the AVX-512 and AVX bodies, with F16C. Where it does
// not, every GemmHalfB call decodes B first, so a caller that multiplies by
// the same binary16 values many times — the fp16 decoder's weights — keeps
// them decoded instead and calls Gemm: the same bits, and the Go kernels read
// twice the bytes faster than they convert them (kernels_generic.go).
func HalfInLoad() bool { return halfInLoad() }

// gemmHalfBDecoded is GemmHalfB with B decoded once into pooled scratch.
func gemmHalfBDecoded(m, n, k int, alpha float32, a []float32, lda int, b Half, ldb int, beta float32, c []float32, ldc int) {
	nb := operandElems(false, k, n, ldb)
	pb, bf := getF16Scratch(nb)
	tensor.DecodeF16Slice(bf, b[:nb])
	Gemm(false, false, m, n, k, alpha, a, lda, bf, ldb, beta, c, ldc)
	putF16Scratch(pb)
}

// EncodeHalf rounds src through binary16 into a freshly allocated Half.
// Convenience for one-time weight encoding; hot paths should encode into
// reused buffers with tensor.EncodeF16Slice.
func EncodeHalf(src []float32) Half {
	h := make(Half, len(src))
	tensor.EncodeF16Slice(h, src)
	return h
}
