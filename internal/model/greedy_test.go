package model

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// decodeState is greedy's incremental state: the self-attention KV cache per
// layer (rows of [hidden] appended per generated token).
type decodeState struct {
	selfK [][]float32 // [layer][t*hidden]
	selfV [][]float32
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
