package model

import (
	"fmt"
	"math"

	"repro/internal/allocator"
	"repro/internal/blas"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Special token conventions used by the decoder.
const (
	TokPad = 0
	TokBos = 1
	TokEos = 2
)

// decoderLayerWeights holds one decoder layer's parameters: self-attention,
// encoder-decoder cross-attention, and the feed-forward block, each with a
// post-residual LayerNorm (the Transformer decoder of Fig. 1).
type decoderLayerWeights struct {
	selfWq, selfWk, selfWv, selfWo *tensor.Tensor
	selfBq, selfBk, selfBv, selfBo *tensor.Tensor
	selfLnG, selfLnB               *tensor.Tensor

	crossWq, crossWk, crossWv, crossWo *tensor.Tensor
	crossBq, crossBk, crossBv, crossBo *tensor.Tensor
	crossLnG, crossLnB                 *tensor.Tensor

	ffnW1, ffnB1, ffnW2, ffnB2 *tensor.Tensor
	ffnLnG, ffnLnB             *tensor.Tensor
}

// Decoder is the Seq2Seq decoder of Table 3: an incremental (KV-cached)
// transformer decoder, the paper's Chinese→English translation model. It is
// served through Generator.Step; greedy and step are its per-row oracle.
type Decoder struct {
	Cfg    Config
	Embed  *Embedding
	Proj   *tensor.Tensor // [hidden, vocab] output projection
	layers []decoderLayerWeights

	// scr is the decode-iteration workspace (see decodescratch.go):
	// Generator iterations draw activations, scores, and logits from it
	// instead of making fresh slices per token. A standalone decoder
	// accounts it on a private device; NewGenerator rebinds it to the engine's shared device so decode activations appear
	// in the same MemoryStats as encoder activations and KV caches.
	scr *decodeScratch

	// fp16 route (EnableFP16): layersF16 holds each layer's ten GEMM weights
	// and projF16 the vocabulary projection with binary16 values — stored as
	// binary16, half the bytes of layers' fp32, which a decode step streams
	// from beyond L2, where blas.GemmHalfB converts them in its load (see
	// halfWeight). Biases and LayerNorm parameters are layers'. KV caches and
	// the cross memory store binary16 too.
	fp16      bool
	layersF16 []layerHalves
	projF16   halfWeight
}

// layerHalves is one decoder layer's GEMM weights on the fp16 route, named
// as in decoderLayerWeights.
type layerHalves struct {
	selfWq, selfWk, selfWv, selfWo     halfWeight
	crossWq, crossWk, crossWv, crossWo halfWeight
	ffnW1, ffnW2                       halfWeight
}

// halfWeight is one GEMM weight on the fp16 route, its values binary16. Where
// blas.GemmHalfB converts B in the NN kernels' load (blas.HalfInLoad) they
// are stored as binary16 (h); elsewhere GemmHalfB would decode B at every
// call, slower than the fp32 kernels read twice the bytes, so they are
// decoded once (f, binary16-valued fp32). Both give the same bits. The zero
// halfWeight is the fp32 route's: project reads W itself.
type halfWeight struct {
	h blas.Half
	f []float32
}

func newHalfWeight(w *tensor.Tensor) halfWeight {
	if blas.HalfInLoad() {
		return halfWeight{h: blas.EncodeHalf(w.Data())}
	}
	return halfWeight{f: w.RoundedF16().Data()}
}

// noHalves is the fp32 route's layerHalves: every weight reads as fp32.
var noHalves layerHalves

// halves returns layer l's binary16-valued weights on the fp16 route,
// noHalves on fp32.
func (d *Decoder) halves(l int) *layerHalves {
	if d.fp16 {
		return &d.layersF16[l]
	}
	return &noHalves
}

// project computes out = in·W over rows rows of in: through W's fp16-route
// form wh when it has one, else through W.
func project(rows int, in []float32, w *tensor.Tensor, wh halfWeight, out []float32) {
	k, n := w.Dim(0), w.Dim(1)
	if wh.h != nil {
		blas.GemmHalfB(rows, n, k, 1, in, k, wh.h, n, 0, out, n)
		return
	}
	b := w.Data()
	if wh.f != nil {
		b = wh.f
	}
	blas.Gemm(false, false, rows, n, k, 1, in, k, b, n, 0, out, n)
}

// NewDecoder builds a decoder with deterministic random weights.
func NewDecoder(cfg Config, seed int64) (*Decoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.IsDecoder {
		return nil, fmt.Errorf("model %s: NewDecoder needs a decoder config", cfg.Name)
	}
	h, inter, vocab := cfg.Hidden, cfg.Inter, cfg.Vocab
	d := &Decoder{
		Cfg:   cfg,
		Embed: NewEmbedding(cfg, seed),
		Proj:  tensor.RandN(seed+7, 0.05, h, vocab),
		scr:   newDecodeScratch(allocator.NewDevice()),
	}
	mat := func(s int64, r, c int) *tensor.Tensor { return tensor.RandN(s, 0.05, r, c) }
	vec := func(s int64, n int) *tensor.Tensor { return tensor.RandN(s, 0.02, n) }
	ones := func(s int64, n int) *tensor.Tensor { return tensor.RandUniform(s, 0.9, 1.1, n) }
	for l := 0; l < cfg.Layers; l++ {
		s := seed + int64(l)*100
		d.layers = append(d.layers, decoderLayerWeights{
			selfWq: mat(s+1, h, h), selfWk: mat(s+2, h, h), selfWv: mat(s+3, h, h), selfWo: mat(s+4, h, h),
			selfBq: vec(s+5, h), selfBk: vec(s+6, h), selfBv: vec(s+7, h), selfBo: vec(s+8, h),
			selfLnG: ones(s+9, h), selfLnB: vec(s+10, h),
			crossWq: mat(s+11, h, h), crossWk: mat(s+12, h, h), crossWv: mat(s+13, h, h), crossWo: mat(s+14, h, h),
			crossBq: vec(s+15, h), crossBk: vec(s+16, h), crossBv: vec(s+17, h), crossBo: vec(s+18, h),
			crossLnG: ones(s+19, h), crossLnB: vec(s+20, h),
			ffnW1: mat(s+21, h, inter), ffnB1: vec(s+22, inter),
			ffnW2: mat(s+23, inter, h), ffnB2: vec(s+24, h),
			ffnLnG: ones(s+25, h), ffnLnB: vec(s+26, h),
		})
	}
	return d, nil
}

// DecodeScratchBytes returns the decode workspace's current device
// footprint — the plan-reused buffer Generator.Step draws activations from
// (tests use it to separate workspace bytes from KV).
func (d *Decoder) DecodeScratchBytes() int64 { return d.scr.bytes() }

// decodeState is greedy's incremental state: the self-attention KV cache per
// layer (rows of [hidden] appended per generated token).
type decodeState struct {
	selfK [][]float32 // [layer][t*hidden]
	selfV [][]float32
}

// crossCache holds the per-layer projected encoder memory (it depends only
// on the source sentence): per layer one K and one V span of
// [srcLen, hidden] — binary16 storage on the fp16 route, since the
// cross memory is KV storage like the decode cache and halves with it. While
// a generation session runs on it, the binary16 spans also carry their
// decoded view (kernels.KVSpans.View; ccRef owns it).
type crossCache struct {
	k, v           []kernels.KVSpans // [layer]
	srcLen, hidden int
}

func (cc *crossCache) half() bool { return cc.k[0].Half() }

// bytes is the cache's KV footprint: srcLen rows of K and V in every layer.
func (cc *crossCache) bytes() int64 {
	return int64(cc.srcLen) * int64(len(cc.k)) * 2 * int64(cc.hidden) * kvElemBytes(cc.half())
}

// newCrossCache projects the encoder memory through every layer's
// cross-attention K/V weights once per request. On the fp16 route (half) the
// memory rounds through binary16 once, the projections read the binary16-
// valued weights (at srcLen rows blas.GemmHalfB decodes them once per call),
// and the
// projected rows round through binary16 where they stand: the binary16 words
// are encoded from them, and the rounded buffer — bit for bit what decoding
// those words gives — stays on as the spans' decoded view, so the rows
// convert once, not at every step.
func (d *Decoder) newCrossCache(memory *tensor.Tensor, half bool) *crossCache {
	h := d.Cfg.Hidden
	srcLen := memory.Dim(0)
	mem := memory.Data()
	if half {
		mem = memory.RoundedF16().Data()
	}
	projectKV := func(w *tensor.Tensor, wh halfWeight, bias *tensor.Tensor) kernels.KVSpans {
		rows := make([]float32, srcLen*h)
		project(srcLen, mem, w, wh, rows)
		kernels.AddBias(rows, bias.Data(), srcLen, h)
		if !half {
			return kernels.OneSpan(rows, srcLen, false)
		}
		tensor.RoundSliceF16(rows)
		span := kernels.OneSpan(rows, srcLen, true)
		span.View = [][]float32{rows}
		return span
	}
	cc := &crossCache{srcLen: srcLen, hidden: h}
	for l := range d.layers {
		lw, hw := &d.layers[l], &noHalves
		if half {
			hw = &d.layersF16[l]
		}
		cc.k = append(cc.k, projectKV(lw.crossWk, hw.crossWk, lw.crossBk))
		cc.v = append(cc.v, projectKV(lw.crossWv, hw.crossWv, lw.crossBv))
	}
	return cc
}

// attend computes single-query multi-head attention for one session: q [hidden] against the first T rows of the keys/vals views,
// writing ctx [hidden]. This is the per-row reference oracle for the grouped
// decode kernel (kernels.DecodeWorkspace.Attention) on every layout and
// precision: each (span, head) score and context product goes through the
// same blas GEMM kernel the grouped call dispatches per problem — scale in
// the score GEMM's alpha, context spans applied in ascending order with
// beta=1 continuation — and binary16 views round q and the probabilities
// and decode their spans exactly where the kernel does. The two paths are
// bit-identical by construction, so property tests pin exact token streams.
func (d *Decoder) attend(q []float32, keys, vals kernels.KVSpans, T int, ctx []float32) {
	h, heads := d.Cfg.Hidden, d.Cfg.Heads
	hd := h / heads
	scale := float32(1 / math.Sqrt(float64(hd)))
	half := keys.Half()
	if half {
		q = append([]float32(nil), q...)
		tensor.RoundSliceF16(q)
	}
	kf, vf := keys.Decoded(T, h), vals.Decoded(T, h)
	scores := make([]float32, T)
	for head := 0; head < heads; head++ {
		off := head * hd
		for b, span := range kf {
			n := len(span) / h
			blas.Gemm(false, true, 1, n, hd, scale, q[off:off+hd], hd, span[off:], h, 0, scores[b*keys.Rows:], n)
		}
		kernels.Softmax(scores, 1, T)
		if half {
			tensor.RoundSliceF16(scores)
		}
		for b, span := range vf {
			n := len(span) / h
			beta := float32(1)
			if b == 0 {
				beta = 0
			}
			blas.Gemm(false, false, 1, hd, n, 1, scores[b*vals.Rows:], n, span[off:], h, beta, ctx[off:off+hd], hd)
		}
	}
}

// linear computes y = x·W + b for a single row.
func linear(x []float32, w *tensor.Tensor, b *tensor.Tensor, y []float32) {
	k, n := w.Dim(0), w.Dim(1)
	blas.Gemm(false, false, 1, n, k, 1, x, k, w.Data(), n, 0, y, n)
	if b != nil {
		kernels.AddBias(y, b.Data(), 1, n)
	}
}

// step advances one decode by one token: embeds tok at position pos, runs
// all decoder layers updating st's KV cache, and returns the vocab logits.
func (d *Decoder) step(st *decodeState, cc *crossCache, tok, pos int) []float32 {
	h := d.Cfg.Hidden
	x := make([]float32, h)
	d.Embed.embedRow(tok, pos, x)
	kernels.LayerNorm(x, d.Embed.Gamma.Data(), d.Embed.Beta.Data(), 1, h, 1e-5)

	q := make([]float32, h)
	kNew := make([]float32, h)
	vNew := make([]float32, h)
	ctx := make([]float32, h)
	proj := make([]float32, h)

	for l := range d.layers {
		lw := &d.layers[l]

		// Masked self-attention over the cache (causality is implicit:
		// the cache only holds past positions).
		linear(x, lw.selfWq, lw.selfBq, q)
		linear(x, lw.selfWk, lw.selfBk, kNew)
		linear(x, lw.selfWv, lw.selfBv, vNew)
		st.selfK[l] = append(st.selfK[l], kNew...)
		st.selfV[l] = append(st.selfV[l], vNew...)
		T := len(st.selfK[l]) / h
		d.attend(q, kernels.OneSpan(st.selfK[l], T, false), kernels.OneSpan(st.selfV[l], T, false), T, ctx)
		linear(ctx, lw.selfWo, lw.selfBo, proj)
		for i := range x {
			x[i] += proj[i]
		}
		kernels.LayerNorm(x, lw.selfLnG.Data(), lw.selfLnB.Data(), 1, h, 1e-5)

		// Cross-attention over the encoder memory.
		linear(x, lw.crossWq, lw.crossBq, q)
		d.attend(q, cc.k[l], cc.v[l], cc.srcLen, ctx)
		linear(ctx, lw.crossWo, lw.crossBo, proj)
		for i := range x {
			x[i] += proj[i]
		}
		kernels.LayerNorm(x, lw.crossLnG.Data(), lw.crossLnB.Data(), 1, h, 1e-5)

		// Feed-forward network.
		inter := make([]float32, d.Cfg.Inter)
		linear(x, lw.ffnW1, lw.ffnB1, inter)
		kernels.Act(d.Cfg.Act, inter)
		linear(inter, lw.ffnW2, lw.ffnB2, proj)
		for i := range x {
			x[i] += proj[i]
		}
		kernels.LayerNorm(x, lw.ffnLnG.Data(), lw.ffnLnB.Data(), 1, h, 1e-5)
	}

	logits := make([]float32, d.Cfg.Vocab)
	blas.Gemm(false, false, 1, d.Cfg.Vocab, h, 1, x, h, d.Proj.Data(), d.Cfg.Vocab, 0, logits, d.Cfg.Vocab)
	return logits
}

// greedy decodes from encoder memory [srcLen, hidden] one argmax token at a
// time through step, up to maxLen tokens (0 or past MaxTargetLen: the
// decoder's MaxTargetLen), stopping after EOS. It is the per-row oracle
// Generator.Step's token streams are checked against; every buffer it
// touches is its own, so concurrent calls on one decoder are safe.
func (d *Decoder) greedy(memory *tensor.Tensor, maxLen int) ([]int, error) {
	if memory.Rank() != 2 || memory.Dim(1) != d.Cfg.Hidden {
		return nil, fmt.Errorf("model %s: memory shape %v, want [srcLen, %d]",
			d.Cfg.Name, memory.Shape(), d.Cfg.Hidden)
	}
	if maxLen <= 0 || maxLen > d.Cfg.MaxTargetLen {
		maxLen = d.Cfg.MaxTargetLen
	}
	cc := d.newCrossCache(memory, false)
	st := &decodeState{selfK: make([][]float32, d.Cfg.Layers), selfV: make([][]float32, d.Cfg.Layers)}
	var toks []int
	for tok := TokBos; len(toks) < maxLen && tok != TokEos; {
		tok = argmax(d.step(st, cc, tok, len(toks)))
		toks = append(toks, tok)
	}
	return toks, nil
}
