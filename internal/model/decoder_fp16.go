package model

import "repro/internal/tensor"

// FP16 decode support: the Turbo-TC route through the Seq2Seq decoder.
// Weights are rounded to binary16 once at enable time and activations once
// where they are produced (the Tensor Core load conversion), both kept as
// binary16-VALUED fp32 so every weight GEMM is the plain fp32 kernel; KV rows
// and the cross memory are binary16 STORAGE (see KVCache/BlockKVCache half
// mode), decoded at access by the one decode-attention kernel and its per-row
// oracle (Decoder.attend), which see the storage format on the span view —
// except that the cross memory, which never changes, is decoded once per
// running session and read from that view by the kernel (ccRef); accumulation
// and all reductions stay fp32.

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
