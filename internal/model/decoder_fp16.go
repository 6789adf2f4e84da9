package model

// FP16 decode support: the Turbo-TC route through the Seq2Seq decoder.
// Weights round to binary16 once at enable time. Where the CPU converts
// binary16 in the GEMM's load (blas.HalfInLoad: AVX with F16C) they are
// binary16 STORAGE read by blas.GemmHalfB, which converts them exactly in the
// load (the Tensor Core load conversion), so a decode step streams half the
// weight bytes; elsewhere they stay binary16-VALUED fp32 (halfWeight).
// Activations round once where they are produced and stay binary16-valued
// fp32. KV rows and the cross memory are binary16 storage (see
// KVCache/BlockKVCache half mode), decoded at access by the one
// decode-attention kernel and its per-row oracle (Decoder.attend), which see
// the storage format on the span view — except that the cross memory, which
// never changes, is decoded once per running session and read from that view
// by the kernel (ccRef); accumulation and all reductions stay fp32.

// EnableFP16 switches the decoder's generation route to binary16 numerics
// with fp32 accumulation, rounding every GEMM weight through binary16 once
// (the fp32 weights stay, for the fp32 oracle). Must be called before
// sessions are opened (existing fp32 KV caches are not converted).
// Idempotent.
func (d *Decoder) EnableFP16() {
	if d.fp16 {
		return
	}
	d.fp16 = true
	d.projF16 = newHalfWeight(d.Proj)
	d.layersF16 = make([]layerHalves, len(d.layers))
	for l := range d.layers {
		lw := &d.layers[l]
		d.layersF16[l] = layerHalves{
			selfWq: newHalfWeight(lw.selfWq), selfWk: newHalfWeight(lw.selfWk),
			selfWv: newHalfWeight(lw.selfWv), selfWo: newHalfWeight(lw.selfWo),
			crossWq: newHalfWeight(lw.crossWq), crossWk: newHalfWeight(lw.crossWk),
			crossWv: newHalfWeight(lw.crossWv), crossWo: newHalfWeight(lw.crossWo),
			ffnW1: newHalfWeight(lw.ffnW1), ffnW2: newHalfWeight(lw.ffnW2),
		}
	}
}

// FP16Enabled reports whether EnableFP16 was called.
func (d *Decoder) FP16Enabled() bool { return d.fp16 }
