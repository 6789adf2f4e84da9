package kernels

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/parallel"
)

// Grouped single-query (decode) attention primitives. One autoregressive
// decode iteration holds a batch of sessions, each contributing exactly one
// query row but attending over its own context — its private self-attention
// KV cache (length grows every step) or its own cross-attention memory
// (length fixed at the prompt). The batch is therefore ragged in the
// context dimension, and padding it to the longest context would reintroduce
// exactly the waste the packed encoder path removed.
//
// Instead, every session's per-head problems become one group of a
// blas.GroupedStridedBatchedGemm call (ragged m/n/k per group, like the
// packed encoder's attention), and the scaled softmax runs over the
// concatenated score rows. Layouts:
//
//   - q:   [rows, hidden] — one query row per session, heads interleaved
//     along the row as usual (head h at columns [h*headDim, (h+1)*headDim));
//   - keys[i], vals[i]: session i's [ctxLens[i], hidden] context;
//   - scores: session i's block starts at element heads*Σ_{j<i} ctxLens[j]
//     and is shaped [heads, ctxLens[i]] — no block is padded to a batch
//     maximum, mirroring the packed encoder's score layout at seqQ = 1.
//
// Because each (session, head) problem runs through the same GEMM kernel a
// per-session blas-backed reference uses, the grouped path is bit-identical
// to the per-row oracle — parallelism across the flattened (session, head)
// space changes wall-clock, never results.

// decodeScoreFloats returns the score-buffer length the batch needs.
func decodeScoreFloats(ctxLens []int, heads int) int {
	total := 0
	for i, n := range ctxLens {
		if n <= 0 {
			panic(fmt.Sprintf("kernels: decode session %d has non-positive context %d", i, n))
		}
		total += n
	}
	return heads * total
}

// DecodeWorkspace holds the grow-only group descriptors and offset tables
// the decode primitives build per call, so a decode loop that runs them
// every sub-layer of every iteration does not churn small allocations. The
// zero value is ready to use; a workspace must not be shared between
// concurrent calls.
type DecodeWorkspace struct {
	groups []blas.StridedBatch
	offs   []int

	// fp16-route scratch: grouped descriptors with binary16 K/V operands and
	// the query rows rounded through binary16 (the Tensor Core load
	// conversion of q, done once per attention call).
	groupsF16 []blas.StridedBatchF16
	qr        []float32
}

func (ws *DecodeWorkspace) groupsFor(n int) []blas.StridedBatch {
	if cap(ws.groups) < n {
		ws.groups = make([]blas.StridedBatch, n)
	}
	ws.groups = ws.groups[:n]
	return ws.groups
}

func (ws *DecodeWorkspace) offsFor(n int) []int {
	if cap(ws.offs) < n {
		ws.offs = make([]int, n)
	}
	ws.offs = ws.offs[:n]
	return ws.offs
}

// Scores computes raw (unscaled) single-query attention scores for a
// ragged decode batch: for every session i and head h,
// scores[i][h][t] = q_ih · keys[i][t]_h. One grouped GEMM call covers the
// whole batch; group i runs heads problems of shape [1, ctxLens[i], headDim].
func (ws *DecodeWorkspace) Scores(q []float32, keys [][]float32, ctxLens []int, heads, headDim int, scores []float32) {
	rows := len(ctxLens)
	if rows == 0 {
		return
	}
	hidden := heads * headDim
	checkLen("DecodeScores q", q, rows*hidden)
	checkLen("DecodeScores scores", scores, decodeScoreFloats(ctxLens, heads))
	groups := ws.groupsFor(rows)
	off := 0
	for i, T := range ctxLens {
		checkLen("DecodeScores keys", keys[i], T*hidden)
		groups[i] = blas.StridedBatch{
			M: 1, N: T, K: headDim,
			A: q[i*hidden:], Lda: headDim, StrideA: headDim,
			B: keys[i], Ldb: hidden, StrideB: headDim,
			C: scores[off:], Ldc: T, StrideC: T,
			Count: heads,
		}
		off += heads * T
	}
	blas.GroupedStridedBatchedGemm(false, true, 1, 0, groups)
	ws.releaseGroups()
}

// ScaledSoftmax is the packed scaled softmax over the concatenated decode
// score rows: every [1, ctxLens[i]] row (heads per session) is scaled then
// softmaxed over its own context length. As with the packed encoder softmax
// there is no mask parameter — padding never exists on this path.
func (ws *DecodeWorkspace) ScaledSoftmax(scores []float32, ctxLens []int, heads int, scale float32) {
	batch := len(ctxLens)
	if batch == 0 {
		return
	}
	checkLen("DecodeScaledSoftmax scores", scores, decodeScoreFloats(ctxLens, heads))
	// offs[i] = elements before session i's block (heads*ctx per session).
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
			for j := range row {
				row[j] *= scale
			}
			softmaxRow(row)
		}
	})
}

// Context folds the softmaxed scores back through each session's values:
// ctx[i]_h = scores[i][h] · vals[i]_h, one grouped GEMM call with ragged k
// per group. ctx is [rows, hidden]; previous contents are ignored.
func (ws *DecodeWorkspace) Context(scores []float32, vals [][]float32, ctxLens []int, heads, headDim int, ctx []float32) {
	rows := len(ctxLens)
	if rows == 0 {
		return
	}
	hidden := heads * headDim
	checkLen("DecodeContext ctx", ctx, rows*hidden)
	checkLen("DecodeContext scores", scores, decodeScoreFloats(ctxLens, heads))
	groups := ws.groupsFor(rows)
	off := 0
	for i, T := range ctxLens {
		checkLen("DecodeContext vals", vals[i], T*hidden)
		groups[i] = blas.StridedBatch{
			M: 1, N: headDim, K: T,
			A: scores[off:], Lda: T, StrideA: T,
			B: vals[i], Ldb: hidden, StrideB: headDim,
			C: ctx[i*hidden:], Ldc: headDim, StrideC: headDim,
			Count: heads,
		}
		off += heads * T
	}
	blas.GroupedStridedBatchedGemm(false, false, 1, 0, groups)
	ws.releaseGroups()
}

// releaseGroups drops the KV/score references captured in the group
// descriptors, so a workspace held by an idle decode loop does not pin
// closed sessions' cache arrays.
func (ws *DecodeWorkspace) releaseGroups() {
	for i := range ws.groups {
		ws.groups[i] = blas.StridedBatch{}
	}
}

// Attention runs the full grouped decode attention for one ragged batch:
// scores, scaled softmax, context — the decode-path analogue of the packed
// encoder's attention pipeline. scores is caller-provided scratch of at
// least heads*Σ ctxLens floats (its contents on return are the attention
// probabilities, useful for tests); ctx receives [rows, hidden].
func (ws *DecodeWorkspace) Attention(q []float32, keys, vals [][]float32, ctxLens []int, heads, headDim int, scale float32, scores, ctx []float32) {
	if len(keys) != len(ctxLens) || len(vals) != len(ctxLens) {
		panic(fmt.Sprintf("kernels: DecodeAttention %d sessions with %d/%d key/val blocks",
			len(ctxLens), len(keys), len(vals)))
	}
	ws.Scores(q, keys, ctxLens, heads, headDim, scores)
	ws.ScaledSoftmax(scores, ctxLens, heads, scale)
	ws.Context(scores, vals, ctxLens, heads, headDim, ctx)
}

// DecodeScores, DecodeScaledSoftmax, DecodeContext, and DecodeAttention are
// the convenience forms over a throwaway workspace (tests, one-shot
// callers); a decode loop should hold a DecodeWorkspace instead.
func DecodeScores(q []float32, keys [][]float32, ctxLens []int, heads, headDim int, scores []float32) {
	(&DecodeWorkspace{}).Scores(q, keys, ctxLens, heads, headDim, scores)
}

// DecodeScaledSoftmax — see DecodeWorkspace.ScaledSoftmax.
func DecodeScaledSoftmax(scores []float32, ctxLens []int, heads int, scale float32) {
	(&DecodeWorkspace{}).ScaledSoftmax(scores, ctxLens, heads, scale)
}

// DecodeContext — see DecodeWorkspace.Context.
func DecodeContext(scores []float32, vals [][]float32, ctxLens []int, heads, headDim int, ctx []float32) {
	(&DecodeWorkspace{}).Context(scores, vals, ctxLens, heads, headDim, ctx)
}

// DecodeAttention — see DecodeWorkspace.Attention.
func DecodeAttention(q []float32, keys, vals [][]float32, ctxLens []int, heads, headDim int, scale float32, scores, ctx []float32) {
	(&DecodeWorkspace{}).Attention(q, keys, vals, ctxLens, heads, headDim, scale, scores, ctx)
}
