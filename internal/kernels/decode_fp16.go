package kernels

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// FP16 (Turbo-TC) variants of the grouped decode-attention primitives. The
// KV context arrives as binary16 storage (blas.Half) and is decoded at
// access, the query rows are rounded through binary16 once at the kernel
// boundary and go in as the binary16-valued fp32 AF operand, and all
// accumulation stays fp32 — the tensor-core numerics of §6.2.1. Two fusions
// that the fp32 path runs as separate passes are folded in:
//
//   - the softmax scale rides in the QK GEMM's alpha (bit-identical: the NT
//     kernel applies alpha as the single per-element multiply either way),
//   - the softmax output is rounded to binary16 in the same pass that
//     normalises it (the cast a fused fp16 softmax kernel performs when it
//     writes probabilities into Tensor Core registers for scores·V).
//
// Each fp16 primitive is bit-identical to the per-row fp16 oracle in
// internal/model for the same reasons the fp32 grouped path matches its
// oracle: identical GEMM kernels, identical accumulation order, and
// decode∘encode == RoundF16 exactly.

func (ws *DecodeWorkspace) groupsF16For(n int) []blas.StridedBatchF16 {
	if cap(ws.groupsF16) < n {
		ws.groupsF16 = make([]blas.StridedBatchF16, n)
	}
	ws.groupsF16 = ws.groupsF16[:n]
	return ws.groupsF16
}

// releaseGroupsF16 drops KV/score references, mirroring releaseGroups.
func (ws *DecodeWorkspace) releaseGroupsF16() {
	for i := range ws.groupsF16 {
		ws.groupsF16[i] = blas.StridedBatchF16{}
	}
}

// roundQ rounds the batch's query rows through binary16 into the reused
// ws.qr buffer (one pass; the caller's q keeps its fp32 values).
func (ws *DecodeWorkspace) roundQ(q []float32, n int) []float32 {
	if cap(ws.qr) < n {
		ws.qr = make([]float32, n)
	}
	ws.qr = ws.qr[:n]
	tensor.RoundF16Into(ws.qr, q[:n])
	return ws.qr
}

func checkLenF16(what string, s blas.Half, want int) {
	if len(s) < want {
		panic("kernels: " + what + " too short")
	}
}

// ScoresF16 computes SCALED single-query attention scores against binary16
// keys: scores[i][h][t] = scale · (q̂_ih · keys[i][t]_h) with q̂ the
// binary16-rounded query. Unlike the fp32 Scores, the softmax scale is
// fused into the GEMM's alpha — one launch instead of a GEMM plus a scaling
// sweep.
func (ws *DecodeWorkspace) ScoresF16(q []float32, keys []blas.Half, ctxLens []int, heads, headDim int, scale float32, scores []float32) {
	rows := len(ctxLens)
	if rows == 0 {
		return
	}
	hidden := heads * headDim
	checkLen("DecodeScoresF16 q", q, rows*hidden)
	checkLen("DecodeScoresF16 scores", scores, decodeScoreFloats(ctxLens, heads))
	qr := ws.roundQ(q, rows*hidden)
	groups := ws.groupsF16For(rows)
	off := 0
	for i, T := range ctxLens {
		checkLenF16("DecodeScoresF16 keys", keys[i], T*hidden)
		groups[i] = blas.StridedBatchF16{
			M: 1, N: T, K: headDim,
			AF: qr[i*hidden:], Lda: headDim, StrideA: headDim,
			B: keys[i], Ldb: hidden, StrideB: headDim,
			C: scores[off:], Ldc: T, StrideC: T,
			Count: heads,
		}
		off += heads * T
	}
	blas.GroupedStridedBatchedGemmF16(false, true, scale, 0, groups)
	ws.releaseGroupsF16()
}

// SoftmaxF16 softmaxes each already-scaled score row and rounds the
// probabilities through binary16 in the same pass — the fused
// softmax-and-cast that feeds scores·V's Tensor Core A operand. No scale
// parameter: ScoresF16 folded it into the GEMM.
func (ws *DecodeWorkspace) SoftmaxF16(scores []float32, ctxLens []int, heads int) {
	batch := len(ctxLens)
	if batch == 0 {
		return
	}
	checkLen("DecodeSoftmaxF16 scores", scores, decodeScoreFloats(ctxLens, heads))
	offs := ws.offsFor(batch + 1)
	offs[0] = 0
	for i, n := range ctxLens {
		offs[i+1] = offs[i] + heads*n
	}
	parallel.For(batch*heads, rowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			s := r / heads
			n := ctxLens[s]
			start := offs[s] + (r%heads)*n
			row := scores[start : start+n]
			softmaxRow(row)
			tensor.RoundSliceF16(row)
		}
	})
}

// ContextF16 folds binary16-rounded probabilities back through binary16
// values: ctx[i]_h = probs[i][h] · vals[i]_h with fp32 accumulation. The
// probabilities stay in their fp32 buffer (they are binary16-valued after
// SoftmaxF16) — the AF mixed-operand form of the grouped fp16 GEMM.
func (ws *DecodeWorkspace) ContextF16(scores []float32, vals []blas.Half, ctxLens []int, heads, headDim int, ctx []float32) {
	rows := len(ctxLens)
	if rows == 0 {
		return
	}
	hidden := heads * headDim
	checkLen("DecodeContextF16 ctx", ctx, rows*hidden)
	checkLen("DecodeContextF16 scores", scores, decodeScoreFloats(ctxLens, heads))
	groups := ws.groupsF16For(rows)
	off := 0
	for i, T := range ctxLens {
		checkLenF16("DecodeContextF16 vals", vals[i], T*hidden)
		groups[i] = blas.StridedBatchF16{
			M: 1, N: headDim, K: T,
			AF: scores[off:], Lda: T, StrideA: T,
			B: vals[i], Ldb: hidden, StrideB: headDim,
			C: ctx[i*hidden:], Ldc: headDim, StrideC: headDim,
			Count: heads,
		}
		off += heads * T
	}
	blas.GroupedStridedBatchedGemmF16(false, false, 1, 0, groups)
	ws.releaseGroupsF16()
}

// AttentionF16 runs the full grouped fp16 decode attention: fused
// scaled-QK, fused softmax-and-cast, fp16 context. Three launches where the
// fp32 path takes four (scores, scale sweep inside softmax, context — the
// scale sweep is gone and the cast rides the softmax).
func (ws *DecodeWorkspace) AttentionF16(q []float32, keys, vals []blas.Half, ctxLens []int, heads, headDim int, scale float32, scores, ctx []float32) {
	if len(keys) != len(ctxLens) || len(vals) != len(ctxLens) {
		panic(fmt.Sprintf("kernels: DecodeAttentionF16 %d sessions with %d/%d key/val blocks",
			len(ctxLens), len(keys), len(vals)))
	}
	ws.ScoresF16(q, keys, ctxLens, heads, headDim, scale, scores)
	ws.SoftmaxF16(scores, ctxLens, heads)
	ws.ContextF16(scores, vals, ctxLens, heads, headDim, ctx)
}

// checkBlockTableF16 validates one session's binary16 block list.
func checkBlockTableF16(name string, blocks []blas.Half, T, blockTokens, hidden, session int) {
	nb := numBlocks(T, blockTokens)
	if len(blocks) < nb {
		panic(fmt.Sprintf("kernels: %s session %d has %d blocks for %d rows (block %d)",
			name, session, len(blocks), T, blockTokens))
	}
	for b := 0; b < nb; b++ {
		if need := blockRows(T, blockTokens, b) * hidden; len(blocks[b]) < need {
			panic(fmt.Sprintf("kernels: %s session %d block %d has %d halves, need %d",
				name, session, b, len(blocks[b]), need))
		}
	}
}

// ScoresBlockedF16 is ScoresF16 over paged binary16 keys: one group per
// (session, block), scale fused into alpha. Paging only partitions output
// columns here, so each score element runs the exact contiguous dot product.
func (ws *DecodeWorkspace) ScoresBlockedF16(q []float32, keyBlocks [][]blas.Half, ctxLens []int, blockTokens, heads, headDim int, scale float32, scores []float32) {
	rows := len(ctxLens)
	if rows == 0 {
		return
	}
	if blockTokens < 1 {
		panic(fmt.Sprintf("kernels: non-positive block size %d", blockTokens))
	}
	hidden := heads * headDim
	checkLen("DecodeScoresBlockedF16 q", q, rows*hidden)
	checkLen("DecodeScoresBlockedF16 scores", scores, decodeScoreFloats(ctxLens, heads))
	total := 0
	for i, T := range ctxLens {
		checkBlockTableF16("DecodeScoresBlockedF16 keys", keyBlocks[i], T, blockTokens, hidden, i)
		total += numBlocks(T, blockTokens)
	}
	qr := ws.roundQ(q, rows*hidden)
	groups := ws.groupsF16For(total)
	gi, off := 0, 0
	for i, T := range ctxLens {
		for b := 0; b < numBlocks(T, blockTokens); b++ {
			n := blockRows(T, blockTokens, b)
			groups[gi] = blas.StridedBatchF16{
				M: 1, N: n, K: headDim,
				AF: qr[i*hidden:], Lda: headDim, StrideA: headDim,
				B: keyBlocks[i][b], Ldb: hidden, StrideB: headDim,
				C: scores[off+b*blockTokens:], Ldc: T, StrideC: T,
				Count: heads,
			}
			gi++
		}
		off += heads * T
	}
	blas.GroupedStridedBatchedGemmF16(false, true, scale, 0, groups)
	ws.releaseGroupsF16()
}

// ContextBlockedF16 is ContextF16 over paged binary16 values, applied in
// ascending rounds with beta=1 continuation so accumulation order matches
// the contiguous fp16 kernel bit for bit (same argument as the fp32 blocked
// path: gemmNN accumulates per element in strictly ascending k order).
func (ws *DecodeWorkspace) ContextBlockedF16(scores []float32, valBlocks [][]blas.Half, ctxLens []int, blockTokens, heads, headDim int, ctx []float32) {
	rows := len(ctxLens)
	if rows == 0 {
		return
	}
	if blockTokens < 1 {
		panic(fmt.Sprintf("kernels: non-positive block size %d", blockTokens))
	}
	hidden := heads * headDim
	checkLen("DecodeContextBlockedF16 ctx", ctx, rows*hidden)
	checkLen("DecodeContextBlockedF16 scores", scores, decodeScoreFloats(ctxLens, heads))
	maxBlocks := 0
	for i, T := range ctxLens {
		checkBlockTableF16("DecodeContextBlockedF16 vals", valBlocks[i], T, blockTokens, hidden, i)
		if nb := numBlocks(T, blockTokens); nb > maxBlocks {
			maxBlocks = nb
		}
	}
	offs := ws.offsFor(rows + 1)
	offs[0] = 0
	for i, T := range ctxLens {
		offs[i+1] = offs[i] + heads*T
	}
	for round := 0; round < maxBlocks; round++ {
		groups := ws.groupsF16For(0)
		for i, T := range ctxLens {
			if round >= numBlocks(T, blockTokens) {
				continue
			}
			n := blockRows(T, blockTokens, round)
			groups = append(groups, blas.StridedBatchF16{
				M: 1, N: headDim, K: n,
				AF: scores[offs[i]+round*blockTokens:], Lda: T, StrideA: T,
				B: valBlocks[i][round], Ldb: hidden, StrideB: headDim,
				C: ctx[i*hidden:], Ldc: headDim, StrideC: headDim,
				Count: heads,
			})
		}
		beta := float32(1)
		if round == 0 {
			beta = 0
		}
		blas.GroupedStridedBatchedGemmF16(false, false, 1, beta, groups)
		ws.groupsF16 = groups // keep the grown backing array for reuse
		ws.releaseGroupsF16()
	}
}

// AttentionBlockedF16 runs the full grouped fp16 decode attention with
// paged binary16 K/V. Bit-identical to AttentionF16 over the same logical
// K/V rows.
func (ws *DecodeWorkspace) AttentionBlockedF16(q []float32, keyBlocks, valBlocks [][]blas.Half, ctxLens []int, blockTokens, heads, headDim int, scale float32, scores, ctx []float32) {
	if len(keyBlocks) != len(ctxLens) || len(valBlocks) != len(ctxLens) {
		panic(fmt.Sprintf("kernels: DecodeAttentionBlockedF16 %d sessions with %d/%d key/val tables",
			len(ctxLens), len(keyBlocks), len(valBlocks)))
	}
	ws.ScoresBlockedF16(q, keyBlocks, ctxLens, blockTokens, heads, headDim, scale, scores)
	ws.SoftmaxF16(scores, ctxLens, heads)
	ws.ContextBlockedF16(scores, valBlocks, ctxLens, blockTokens, heads, headDim, ctx)
}
