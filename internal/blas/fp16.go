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
// Gemm directly, with no per-call decode. What really is binary16 storage in
// serving — KV blocks and the cross memory — is decoded by the one decode-
// attention kernel (kernels.DecodeWorkspace.Attention) into its own scratch,
// so GemmF16 is the oracle and the ledger's probe, not a serving call. The
// decode scratch is host-side emulation cost and is not charged to the
// simulated device; on real hardware the conversion happens inside the MMA
// load, not in a separate buffer.

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

// EncodeHalf rounds src through binary16 into a freshly allocated Half.
// Convenience for one-time weight encoding; hot paths should encode into
// reused buffers with tensor.EncodeF16Slice.
func EncodeHalf(src []float32) Half {
	h := make(Half, len(src))
	tensor.EncodeF16Slice(h, src)
	return h
}
