package kernels

import (
	"repro/internal/parallel"
)

// SplitAddBiasTransposeForScore implements the fused
// "splitAddBiasTranspose" kernel of Fig. 3b: the fused QKV GEMM output
// qkv [batch, seq, 3*hidden] plus bias [3*hidden] is split into Q, K, V
// and each is transposed into per-head layout [batch, heads, seq, headDim].
//
// hidden must equal heads*headDim.
func SplitAddBiasTransposeForScore(qkv, bias []float32, batch, seq, heads, headDim int, q, k, v []float32) {
	hidden := heads * headDim
	checkLen("SplitAddBiasTransposeForScore qkv", qkv, batch*seq*3*hidden)
	checkLen("SplitAddBiasTransposeForScore bias", bias, 3*hidden)
	checkLen("SplitAddBiasTransposeForScore q", q, batch*seq*hidden)
	checkLen("SplitAddBiasTransposeForScore k", k, batch*seq*hidden)
	checkLen("SplitAddBiasTransposeForScore v", v, batch*seq*hidden)
	rows := batch * seq
	parallel.For(rows, rowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			b := r / seq
			s := r % seq
			src := qkv[r*3*hidden : (r+1)*3*hidden]
			for which, dst := range [3][]float32{q, k, v} {
				part := src[which*hidden : (which+1)*hidden]
				bpart := bias[which*hidden : (which+1)*hidden]
				for h := 0; h < heads; h++ {
					// dst index: [b, h, s, :]
					out := dst[((b*heads+h)*seq+s)*headDim : ((b*heads+h)*seq+s+1)*headDim]
					in := part[h*headDim : (h+1)*headDim]
					bi := bpart[h*headDim : (h+1)*headDim]
					for d := range out {
						out[d] = in[d] + bi[d]
					}
				}
			}
		}
	})
}

// AddBiasTransposeForScore is the single-tensor variant used by the
// decoder's cross-attention K/V projections: x [batch, seq, hidden] + bias
// → out [batch, heads, seq, headDim].
func AddBiasTransposeForScore(x, bias []float32, batch, seq, heads, headDim int, out []float32) {
	hidden := heads * headDim
	checkLen("AddBiasTransposeForScore x", x, batch*seq*hidden)
	checkLen("AddBiasTransposeForScore bias", bias, hidden)
	checkLen("AddBiasTransposeForScore out", out, batch*seq*hidden)
	rows := batch * seq
	parallel.For(rows, rowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			b := r / seq
			s := r % seq
			src := x[r*hidden : (r+1)*hidden]
			for h := 0; h < heads; h++ {
				dst := out[((b*heads+h)*seq+s)*headDim : ((b*heads+h)*seq+s+1)*headDim]
				in := src[h*headDim : (h+1)*headDim]
				bi := bias[h*headDim : (h+1)*headDim]
				for d := range dst {
					dst[d] = in[d] + bi[d]
				}
			}
		}
	})
}

// TransposeForScore converts per-head layout back to hidden layout
// ("transpose" after batched gemm4 in Fig. 3): in [batch, heads, seq,
// headDim] → out [batch, seq, heads*headDim].
func TransposeForScore(in []float32, batch, heads, seq, headDim int, out []float32) {
	hidden := heads * headDim
	checkLen("TransposeForScore in", in, batch*heads*seq*headDim)
	checkLen("TransposeForScore out", out, batch*seq*hidden)
	rows := batch * seq
	parallel.For(rows, rowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			b := r / seq
			s := r % seq
			dst := out[r*hidden : (r+1)*hidden]
			for h := 0; h < heads; h++ {
				src := in[((b*heads+h)*seq+s)*headDim : ((b*heads+h)*seq+s+1)*headDim]
				copy(dst[h*headDim:(h+1)*headDim], src)
			}
		}
	})
}
