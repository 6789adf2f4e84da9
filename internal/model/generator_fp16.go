package model

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// stepF16 is Step on the binary16 fast path. The structure mirrors Step
// exactly — same iteration shape, same scratch plan, same 4-way attention
// dispatch — but every projection's operands are binary16-valued: the
// weights were rounded once by EnableFP16, each activation rounds once where
// it is produced, and the GEMM itself is the fp32 kernel (bit-identical to
// blas.GemmF16 over the encoded operands, without its per-call decode).
// Attention reads the binary16 KV storage through the fused fp16 kernel
// chains (scale folded into the score GEMM, probabilities cast in the
// softmax pass), and the per-row oracle is attendF16/attendBlockedF16.
// Token streams are bit-identical across the four dispatch arms, like the
// fp32 quartet — the property tests pin it.
func (g *Generator) stepF16(sessions []*GenSession) ([]int, error) {
	rows := len(sessions)
	if rows == 0 {
		return nil, nil
	}
	paged := sessions[0].pkv != nil
	sumSelf, sumCross := 0, 0
	for _, s := range sessions {
		if s.done {
			return nil, fmt.Errorf("model %s: session %d already done", g.Cfg.Name, s.ID)
		}
		if s.kv == nil && s.pkv == nil {
			return nil, fmt.Errorf("model %s: session %d closed", g.Cfg.Name, s.ID)
		}
		if (s.pkv != nil) != paged {
			return nil, fmt.Errorf("model %s: mixed paged and contiguous sessions in one batch", g.Cfg.Name)
		}
		if !s.cc.half || (s.kv != nil && !s.kv.Half()) || (s.pkv != nil && !s.pkv.Half()) {
			return nil, fmt.Errorf("model %s: session %d opened before EnableFP16", g.Cfg.Name, s.ID)
		}
		sumSelf += s.ContextLen() + 1
		sumCross += s.cc.srcLen
	}
	if paged {
		for _, s := range sessions {
			if !s.pkv.EnsureAppendable() {
				return nil, ErrKVPoolExhausted
			}
		}
	}
	maxCtx := sumSelf
	if sumCross > maxCtx {
		maxCtx = sumCross
	}
	d := g.dec
	h, inter, vocab, heads := g.Cfg.Hidden, g.Cfg.Inter, g.Cfg.Vocab, g.Cfg.Heads
	hd := h / heads
	scale := float32(1 / math.Sqrt(float64(hd)))

	scr := d.scr
	scr.mu.Lock()
	defer scr.mu.Unlock()
	defer scr.clearGather()
	scr.plan(&g.Cfg, rows, maxCtx)
	x := scr.x[:rows*h]
	q := scr.q[:rows*h]
	kNew := scr.k[:rows*h]
	vNew := scr.v[:rows*h]
	ctx := scr.ctx[:rows*h]
	proj := scr.proj[:rows*h]
	interBuf := scr.inter[:rows*inter]

	pe := scr.pe
	for ri, s := range sessions {
		row := x[ri*h : (ri+1)*h]
		copy(row, d.Embed.Word.Data()[s.next*h:(s.next+1)*h])
		positionEncoding(s.pos, h, pe)
		for i := range row {
			row[i] += pe[i]
		}
	}
	kernels.LayerNorm(x, d.Embed.Gamma.Data(), d.Embed.Beta.Data(), rows, h, 1e-5)

	// rounded is the Tensor Core load conversion of an activation that is
	// still needed unrounded (x feeds the residual): one pass into the
	// workspace's operand scratch, valid until the next call. Activations
	// with the GEMM as their only consumer (attention context, FFN
	// intermediate, the final hidden rows) round in place instead.
	rounded := func(in []float32) []float32 {
		xr := scr.roundedIn(len(in))
		tensor.RoundF16Into(xr, in)
		return xr
	}
	// batchedLinear takes a binary16-valued input and a pre-rounded weight.
	batchedLinear := func(in []float32, w *tensorMat, out []float32) {
		blas.Gemm(false, false, rows, w.n, w.k, 1, in, w.k, w.data, w.n, 0, out, w.n)
		if w.bias != nil {
			kernels.AddBias(out, w.bias, rows, w.n)
		}
	}

	for l := range d.layersF16 {
		lw := &d.layersF16[l]

		// Self-attention over the binary16 cache. AppendRow performs the
		// store-side cast; the kernels read the halves back through the
		// mixed-operand GEMMs.
		xr := rounded(x)
		batchedLinear(xr, mat(lw.selfWq, lw.selfBq), q)
		batchedLinear(xr, mat(lw.selfWk, lw.selfBk), kNew)
		batchedLinear(xr, mat(lw.selfWv, lw.selfBv), vNew)
		switch {
		case g.PerRowAttention && paged:
			for ri, s := range sessions {
				s.pkv.AppendRow(l, kNew[ri*h:(ri+1)*h], vNew[ri*h:(ri+1)*h])
				T := s.pkv.Len() + 1
				d.attendBlockedF16(q[ri*h:(ri+1)*h],
					s.pkv.KBlocksH(nil, l, T), s.pkv.VBlocksH(nil, l, T),
					T, s.pkv.BlockTokens(), ctx[ri*h:(ri+1)*h])
			}
		case g.PerRowAttention:
			for ri, s := range sessions {
				s.kv.AppendRow(l, kNew[ri*h:(ri+1)*h], vNew[ri*h:(ri+1)*h])
				T := s.kv.Len() + 1
				d.attendF16(q[ri*h:(ri+1)*h], s.kv.KH(l, T), s.kv.VH(l, T), T, ctx[ri*h:(ri+1)*h])
			}
		case paged:
			flatK, flatV, counts, lens := scr.gatherBlockedF16()
			for ri, s := range sessions {
				s.pkv.AppendRow(l, kNew[ri*h:(ri+1)*h], vNew[ri*h:(ri+1)*h])
				T := s.pkv.Len() + 1
				before := len(flatK)
				flatK = s.pkv.KBlocksH(flatK, l, T)
				flatV = s.pkv.VBlocksH(flatV, l, T)
				counts = append(counts, len(flatK)-before)
				lens = append(lens, T)
			}
			kb, vb := scr.kbh[:0], scr.vbh[:0]
			off := 0
			for _, n := range counts {
				kb = append(kb, flatK[off:off+n])
				vb = append(vb, flatV[off:off+n])
				off += n
			}
			scr.flatKBH, scr.flatVBH, scr.blkCounts, scr.lens = flatK, flatV, counts, lens
			scr.kbh, scr.vbh = kb, vb
			scr.ws.AttentionBlockedF16(q, kb, vb, lens, sessions[0].pkv.BlockTokens(),
				heads, hd, scale, scr.scores[:heads*sumSelf], ctx)
			g.fusedLaunches.Add(1)
		default:
			keys, vals, lens := scr.gatherF16()
			for ri, s := range sessions {
				s.kv.AppendRow(l, kNew[ri*h:(ri+1)*h], vNew[ri*h:(ri+1)*h])
				T := s.kv.Len() + 1
				keys = append(keys, s.kv.KH(l, T))
				vals = append(vals, s.kv.VH(l, T))
				lens = append(lens, T)
			}
			scr.keysH, scr.valsH, scr.lens = keys, vals, lens
			scr.ws.AttentionF16(q, keys, vals, lens, heads, hd, scale, scr.scores[:heads*sumSelf], ctx)
			g.fusedLaunches.Add(1)
		}
		tensor.RoundSliceF16(ctx)
		batchedLinear(ctx, mat(lw.selfWo, lw.selfBo), proj)
		kernels.AddResidual(x, proj)
		kernels.LayerNorm(x, lw.selfLnG.Data(), lw.selfLnB.Data(), rows, h, 1e-5)

		// Cross-attention against each session's binary16 prompt memory.
		batchedLinear(rounded(x), mat(lw.crossWq, lw.crossBq), q)
		if g.PerRowAttention {
			for ri, s := range sessions {
				d.attendF16(q[ri*h:(ri+1)*h], s.cc.kh[l], s.cc.vh[l], s.cc.srcLen, ctx[ri*h:(ri+1)*h])
			}
		} else {
			keys, vals, lens := scr.gatherF16()
			for _, s := range sessions {
				keys = append(keys, s.cc.kh[l])
				vals = append(vals, s.cc.vh[l])
				lens = append(lens, s.cc.srcLen)
			}
			scr.keysH, scr.valsH, scr.lens = keys, vals, lens
			scr.ws.AttentionF16(q, keys, vals, lens, heads, hd, scale, scr.scores[:heads*sumCross], ctx)
			g.fusedLaunches.Add(1)
		}
		tensor.RoundSliceF16(ctx)
		batchedLinear(ctx, mat(lw.crossWo, lw.crossBo), proj)
		kernels.AddResidual(x, proj)
		kernels.LayerNorm(x, lw.crossLnG.Data(), lw.crossLnB.Data(), rows, h, 1e-5)

		// Feed-forward network, batched.
		batchedLinear(rounded(x), mat(lw.ffnW1, lw.ffnB1), interBuf)
		kernels.Act(g.Cfg.Act, interBuf)
		tensor.RoundSliceF16(interBuf)
		batchedLinear(interBuf, mat(lw.ffnW2, lw.ffnB2), proj)
		kernels.AddResidual(x, proj)
		kernels.LayerNorm(x, lw.ffnLnG.Data(), lw.ffnLnB.Data(), rows, h, 1e-5)
	}

	// Vocabulary projection and greedy argmax per session.
	logits := scr.logits[:rows*vocab]
	tensor.RoundSliceF16(x)
	batchedLinear(x, mat(d.projF16, nil), logits)
	out := make([]int, rows)
	for ri, s := range sessions {
		tok := argmax(logits[ri*vocab : (ri+1)*vocab])
		out[ri] = tok
		s.toks = append(s.toks, tok)
		if s.pkv != nil {
			s.pkv.Advance()
		} else {
			s.kv.Advance()
		}
		s.pos++
		s.next = tok
		if tok == TokEos || len(s.toks) >= s.maxNew {
			s.done = true
		}
	}
	return out, nil
}
