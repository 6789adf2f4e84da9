package model

import (
	"repro/internal/blas"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// stepAll advances every live beam by one token with batched projections:
// one [beams,H]×[H,N] GEMM per linear layer instead of per-beam GEMV-sized
// calls. This is how a real decoder exploits the beam dimension on GPU
// (and on our parallel CPU substrate); results are bit-identical to the
// single-beam step because every projection is row-independent.
//
// Each beam's KV cache is updated in place. Returns one logits row per
// beam; the rows are views into the decoder's reusable decode scratch (the
// same workspace Generator.Step draws from, so beam search allocates no
// per-token activation buffers either — only attend's small per-head score
// rows remain) and are only valid until the next stepAll or Generator.Step
// call on this decoder.
func (d *Decoder) stepAll(states []*decodeState, cc *crossCache, toks []int, pos int) [][]float32 {
	d.scr.mu.Lock()
	defer d.scr.mu.Unlock()
	return d.stepAllLocked(states, cc, toks, pos)
}

// stepAllLocked is stepAll's body; the caller must hold d.scr.mu and must
// consume the returned logits views before releasing it (BeamSearch holds
// the lock across its whole position loop for exactly this reason).
func (d *Decoder) stepAllLocked(states []*decodeState, cc *crossCache, toks []int, pos int) [][]float32 {
	h, inter, vocab := d.Cfg.Hidden, d.Cfg.Inter, d.Cfg.Vocab
	beams := len(states)

	scr := d.scr
	scr.plan(&d.Cfg, beams, 0)

	// Embed all beams: word + position + LayerNorm, one row per beam.
	x := scr.x[:beams*h]
	for bi, tok := range toks {
		d.Embed.embedRow(tok, pos, x[bi*h:(bi+1)*h])
	}
	kernels.LayerNorm(x, d.Embed.Gamma.Data(), d.Embed.Beta.Data(), beams, h, 1e-5)

	// Batched per-iteration buffers, drawn from the decode workspace.
	q := scr.q[:beams*h]
	kNew := scr.k[:beams*h]
	vNew := scr.v[:beams*h]
	ctx := scr.ctx[:beams*h]
	proj := scr.proj[:beams*h]
	interBuf := scr.inter[:beams*inter]

	batchedLinear := func(in []float32, w *tensorMat, out []float32) {
		blas.Gemm(false, false, beams, w.n, w.k, 1, in, w.k, w.data, w.n, 0, out, w.n)
		if w.bias != nil {
			kernels.AddBias(out, w.bias, beams, w.n)
		}
	}
	// projectNorm closes a sub-layer: x = LayerNorm(x + (in·W + bias)), in one
	// pass and in the association step's linear + residual loop writes out.
	projectNorm := func(in []float32, w, bias, gamma, beta *tensor.Tensor) {
		blas.Gemm(false, false, beams, h, w.Dim(0), 1, in, w.Dim(0), w.Data(), h, 0, proj, h)
		kernels.AddBiasLayerNorm(x, proj, bias.Data(), gamma.Data(), beta.Data(), beams, h, 1e-5)
	}

	for l := range d.layers {
		lw := &d.layers[l]

		// Self-attention: batched Q/K/V projections, per-beam cache attend.
		batchedLinear(x, mat(lw.selfWq, lw.selfBq), q)
		batchedLinear(x, mat(lw.selfWk, lw.selfBk), kNew)
		batchedLinear(x, mat(lw.selfWv, lw.selfBv), vNew)
		for bi, st := range states {
			st.selfK[l] = append(st.selfK[l], kNew[bi*h:(bi+1)*h]...)
			st.selfV[l] = append(st.selfV[l], vNew[bi*h:(bi+1)*h]...)
			T := len(st.selfK[l]) / h
			d.attend(q[bi*h:(bi+1)*h], kernels.OneSpan(st.selfK[l], T, false), kernels.OneSpan(st.selfV[l], T, false), T, ctx[bi*h:(bi+1)*h])
		}
		projectNorm(ctx, lw.selfWo, lw.selfBo, lw.selfLnG, lw.selfLnB)

		// Cross-attention: the K/V cache is shared across beams.
		batchedLinear(x, mat(lw.crossWq, lw.crossBq), q)
		for bi := range states {
			d.attend(q[bi*h:(bi+1)*h], cc.k[l], cc.v[l], cc.srcLen, ctx[bi*h:(bi+1)*h])
		}
		projectNorm(ctx, lw.crossWo, lw.crossBo, lw.crossLnG, lw.crossLnB)

		// Feed-forward network, batched.
		batchedLinear(x, mat(lw.ffnW1, lw.ffnB1), interBuf)
		kernels.Act(d.Cfg.Act, interBuf)
		projectNorm(interBuf, lw.ffnW2, lw.ffnB2, lw.ffnLnG, lw.ffnLnB)
	}

	// Vocabulary projection for all beams at once.
	logits := scr.logits[:beams*vocab]
	blas.Gemm(false, false, beams, vocab, h, 1, x, h, d.Proj.Data(), vocab, 0, logits, vocab)
	out := make([][]float32, beams)
	for bi := range out {
		out[bi] = logits[bi*vocab : (bi+1)*vocab]
	}
	return out
}

// tensorMat bundles a weight matrix with its optional bias for
// batchedLinear.
type tensorMat struct {
	data []float32
	bias []float32
	k, n int
}

func mat(w, b *tensor.Tensor) *tensorMat {
	m := &tensorMat{data: w.Data(), k: w.Dim(0), n: w.Dim(1)}
	if b != nil {
		m.bias = b.Data()
	}
	return m
}
