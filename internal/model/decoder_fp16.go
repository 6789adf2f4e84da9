package model

import (
	"math"

	"repro/internal/blas"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// FP16 decode support: the Turbo-TC route through the Seq2Seq decoder.
// Weights are rounded to binary16 once at enable time and activations once
// where they are produced (the Tensor Core load conversion), both kept as
// binary16-VALUED fp32 so every weight GEMM is the plain fp32 kernel; KV rows
// and the cross memory are binary16 STORAGE (see KVCache/BlockKVCache half
// mode), decoded at access; accumulation and all reductions stay fp32. The
// per-row oracles below dispatch the exact GEMM kernel the grouped fp16
// decode path (kernels.AttentionF16 / AttentionBlockedF16) runs per
// (session, head) problem, so the two routes are bit-identical by
// construction — the same contract the fp32 pair (attend / DecodeAttention)
// keeps.

// EnableFP16 switches the decoder's generation route to binary16 numerics
// with fp32 accumulation, rounding every GEMM weight through binary16 once.
// Must be called before sessions are opened (existing fp32 KV caches are not
// converted). Idempotent.
func (d *Decoder) EnableFP16() {
	if d.fp16 {
		return
	}
	d.fp16 = true
	d.projF16 = d.Proj.RoundedF16()
	d.layersF16 = append([]decoderLayerWeights(nil), d.layers...)
	for l := range d.layersF16 {
		lw := &d.layersF16[l]
		for _, w := range []**tensor.Tensor{
			&lw.selfWq, &lw.selfWk, &lw.selfWv, &lw.selfWo,
			&lw.crossWq, &lw.crossWk, &lw.crossWv, &lw.crossWo,
			&lw.ffnW1, &lw.ffnW2,
		} {
			*w = (*w).RoundedF16()
		}
	}
}

// FP16Enabled reports whether EnableFP16 was called.
func (d *Decoder) FP16Enabled() bool { return d.fp16 }

// buildCrossCacheF16 is buildCrossCache on the fp16 route: the encoder
// memory rounds through binary16 once, the K/V projections are fp32 GEMMs
// against the pre-rounded weights, and the projected rows are stored as
// binary16 — the cross memory is KV storage, so it halves along with the
// decode cache.
func (d *Decoder) buildCrossCacheF16(memory *tensor.Tensor) *crossCache {
	h := d.Cfg.Hidden
	srcLen := memory.Dim(0)
	cc := &crossCache{srcLen: srcLen, half: true}
	mr := memory.RoundedF16().Data()
	k := make([]float32, srcLen*h)
	v := make([]float32, srcLen*h)
	for l := range d.layersF16 {
		lw := &d.layersF16[l]
		blas.Gemm(false, false, srcLen, h, h, 1, mr, h, lw.crossWk.Data(), h, 0, k, h)
		kernels.AddBias(k, lw.crossBk.Data(), srcLen, h)
		blas.Gemm(false, false, srcLen, h, h, 1, mr, h, lw.crossWv.Data(), h, 0, v, h)
		kernels.AddBias(v, lw.crossBv.Data(), srcLen, h)
		cc.kh = append(cc.kh, blas.EncodeHalf(k))
		cc.vh = append(cc.vh, blas.EncodeHalf(v))
	}
	return cc
}

// attendF16 is the per-row fp16 reference oracle for kernels.AttentionF16:
// single-query multi-head attention with binary16 K/V, the softmax scale
// folded into the score GEMM's alpha, and the probabilities rounded through
// binary16 before the context product — exactly the fused-chain numerics the
// grouped kernel runs, one (session, head) problem at a time.
func (d *Decoder) attendF16(q []float32, keys, vals blas.Half, T int, ctx []float32) {
	h, heads := d.Cfg.Hidden, d.Cfg.Heads
	hd := h / heads
	scale := float32(1 / math.Sqrt(float64(hd)))
	qr := make([]float32, h)
	copy(qr, q)
	tensor.RoundSliceF16(qr)
	scores := make([]float32, T)
	for head := 0; head < heads; head++ {
		off := head * hd
		blas.GemmF16A32(false, true, 1, T, hd, scale, qr[off:off+hd], hd, keys[off:], h, 0, scores, T)
		kernels.Softmax(scores, 1, T)
		tensor.RoundSliceF16(scores)
		blas.GemmF16A32(false, false, 1, hd, T, 1, scores, T, vals[off:], h, 0, ctx[off:off+hd], hd)
	}
}

// attendBlockedF16 is attendF16 reading K/V through a paged cache's
// binary16 block tables — the per-row oracle for
// kernels.AttentionBlockedF16. Block application order and beta continuation
// match the contiguous product exactly, so it is bit-identical to attendF16
// over the same logical rows.
func (d *Decoder) attendBlockedF16(q []float32, keyBlocks, valBlocks []blas.Half, T, blockTok int, ctx []float32) {
	h, heads := d.Cfg.Hidden, d.Cfg.Heads
	hd := h / heads
	scale := float32(1 / math.Sqrt(float64(hd)))
	qr := make([]float32, h)
	copy(qr, q)
	tensor.RoundSliceF16(qr)
	scores := make([]float32, T)
	for head := 0; head < heads; head++ {
		off := head * hd
		for b := 0; b*blockTok < T; b++ {
			n := T - b*blockTok
			if n > blockTok {
				n = blockTok
			}
			blas.GemmF16A32(false, true, 1, n, hd, scale, qr[off:off+hd], hd, keyBlocks[b][off:], h, 0, scores[b*blockTok:], n)
		}
		kernels.Softmax(scores, 1, T)
		tensor.RoundSliceF16(scores)
		for b := 0; b*blockTok < T; b++ {
			n := T - b*blockTok
			if n > blockTok {
				n = blockTok
			}
			beta := float32(1)
			if b == 0 {
				beta = 0
			}
			blas.GemmF16A32(false, false, 1, hd, n, 1, scores[b*blockTok:], n, valBlocks[b][off:], h, beta, ctx[off:off+hd], hd)
		}
	}
}
