package kernels

import (
	"sort"

	"repro/internal/parallel"
)

// Packed (zero-padding) kernel variants. A packed batch stores its hidden
// states as [totalTokens, hidden] with per-request row offsets instead of a
// zero-padded [batch, maxLen, hidden] block, so the row-wise kernels
// (AddBias, Act, LayerNorm, ...) run unchanged over totalTokens rows — only
// the kernels whose layout depends on the per-request sequence length need
// packed variants:
//
//   - per-head activations: request i's block lives at rows
//     [offs[i], offs[i+1]) and is shaped [heads, len_i, headDim]
//     (offs are the token prefix sums, offs[0] == 0);
//   - attention scores: request i's block starts at element
//     heads*sqOffs[i] and is shaped [heads, len_i, len_i]
//     (sqOffs are the prefix sums of len²).
//
// No kernel here takes a mask or a padded length: padding never exists.

// reqOf returns the request owning token row r given the offset prefix sums.
func reqOf(offs []int, r int) int {
	// offs is sorted ascending with offs[0]==0; find i: offs[i] <= r < offs[i+1].
	return sort.SearchInts(offs, r+1) - 1
}

// PackedSplitAddBiasTransposeForScore is the packed form of
// SplitAddBiasTransposeForScore: the fused QKV GEMM output
// qkv [totalTokens, 3*hidden] plus bias [3*hidden] is split into Q, K, V in
// per-request per-head layout (blocks of [heads, len_i, headDim]).
func PackedSplitAddBiasTransposeForScore(qkv, bias []float32, lens, offs []int, heads, headDim int, q, k, v []float32) {
	hidden := heads * headDim
	total := offs[len(lens)]
	checkLen("PackedSplitAddBiasTranspose qkv", qkv, total*3*hidden)
	checkLen("PackedSplitAddBiasTranspose bias", bias, 3*hidden)
	checkLen("PackedSplitAddBiasTranspose q", q, total*hidden)
	checkLen("PackedSplitAddBiasTranspose k", k, total*hidden)
	checkLen("PackedSplitAddBiasTranspose v", v, total*hidden)
	parallel.For(total, rowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			b := reqOf(offs, r)
			s := r - offs[b]
			n := lens[b]
			base := offs[b] * hidden
			src := qkv[r*3*hidden : (r+1)*3*hidden]
			for which, dst := range [3][]float32{q, k, v} {
				part := src[which*hidden : (which+1)*hidden]
				bpart := bias[which*hidden : (which+1)*hidden]
				for h := 0; h < heads; h++ {
					// dst block index: [h, s, :] within request b.
					out := dst[base+(h*n+s)*headDim : base+(h*n+s+1)*headDim]
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

// PackedAddBiasTransposeForScore is the packed single-tensor variant:
// x [totalTokens, hidden] + bias → per-request per-head layout.
func PackedAddBiasTransposeForScore(x, bias []float32, lens, offs []int, heads, headDim int, out []float32) {
	hidden := heads * headDim
	total := offs[len(lens)]
	checkLen("PackedAddBiasTransposeForScore x", x, total*hidden)
	checkLen("PackedAddBiasTransposeForScore bias", bias, hidden)
	checkLen("PackedAddBiasTransposeForScore out", out, total*hidden)
	parallel.For(total, rowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			b := reqOf(offs, r)
			s := r - offs[b]
			n := lens[b]
			base := offs[b] * hidden
			src := x[r*hidden : (r+1)*hidden]
			for h := 0; h < heads; h++ {
				dst := out[base+(h*n+s)*headDim : base+(h*n+s+1)*headDim]
				in := src[h*headDim : (h+1)*headDim]
				bi := bias[h*headDim : (h+1)*headDim]
				for d := range dst {
					dst[d] = in[d] + bi[d]
				}
			}
		}
	})
}

// PackedTransposeBack converts per-request per-head layout back to packed
// hidden layout: in blocks [heads, len_i, headDim] → out [totalTokens,
// heads*headDim].
func PackedTransposeBack(in []float32, lens, offs []int, heads, headDim int, out []float32) {
	hidden := heads * headDim
	total := offs[len(lens)]
	checkLen("PackedTransposeBack in", in, total*hidden)
	checkLen("PackedTransposeBack out", out, total*hidden)
	parallel.For(total, rowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			b := reqOf(offs, r)
			s := r - offs[b]
			n := lens[b]
			base := offs[b] * hidden
			dst := out[r*hidden : (r+1)*hidden]
			for h := 0; h < heads; h++ {
				src := in[base+(h*n+s)*headDim : base+(h*n+s+1)*headDim]
				copy(dst[h*headDim:(h+1)*headDim], src)
			}
		}
	})
}

// PackedScaledSoftmax is the packed attention softmax: scores holds
// per-request [heads, len_i, len_i] blocks (request i at element
// heads*sqOffs[i]); every row is scaled by scale then softmaxed over its
// own length. There is no mask parameter — the padded kernel's masking
// exists only to undo padding, and a packed batch has none. The fused chain
// folds the scale into the score GEMM and passes 1: x·1 = x, so that sweep
// is skipped.
func PackedScaledSoftmax(scores []float32, lens, sqOffs []int, heads int, scale float32) {
	batch := len(lens)
	checkLen("PackedScaledSoftmax scores", scores, heads*sqOffs[batch])
	rows := 0
	for _, n := range lens {
		rows += heads * n
	}
	parallel.For(rows, rowGrain, func(lo, hi int) {
		// Request b owns score rows [first, first+heads*lens[b]).
		b, first := 0, 0
		for first+heads*lens[b] <= lo {
			first += heads * lens[b]
			b++
		}
		for r := lo; r < hi; b++ {
			n := lens[b]
			end := min(hi, first+heads*n)
			block := scores[heads*sqOffs[b]+(r-first)*n:][:(end-r)*n]
			if scale != 1 {
				for j := range block {
					block[j] *= scale
				}
			}
			for ; r < end; r++ {
				softmaxRow(block[:n])
				block = block[n:]
			}
			first = end
		}
	})
}
