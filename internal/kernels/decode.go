package kernels

import (
	"fmt"
	"math/bits"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Grouped single-query (decode) attention. One autoregressive decode
// iteration holds a batch of sessions, each contributing exactly one query
// row but attending over its own context — its private self-attention KV
// (length grows every step) or its own cross-attention memory (length fixed
// at the prompt). The batch is ragged in the context dimension, and padding
// it to the longest context would reintroduce exactly the waste the packed
// encoder path removed. Instead every session's per-head problems become
// groups of a blas.GroupedStridedBatchedGemm call and the softmax runs over
// the concatenated score rows.
//
// There is ONE kernel. Each session's context arrives as a KVSpans view, and
// the two things that vary underneath it — how many spans the rows are split
// into, and whether they are stored as fp32 or binary16 — are read off the
// view, not selected by the caller:
//
//   - q is [rows, hidden], one query row per session, heads interleaved
//     along the row (head h at columns [h*headDim, (h+1)*headDim));
//   - scores: session i's block starts at element heads*Σ_{j<i} ctxLens[j]
//     and is shaped [heads, ctxLens[i]] — no block is padded to a batch
//     maximum. On return it holds the attention probabilities.
//   - Scores (q·Kᵀ) run one group per (session, span). The reduction is over
//     headDim, which spans never split — a span only selects output columns
//     — so every score is the exact one-span dot product. The softmax scale
//     rides in the GEMM's alpha: gemmNT writes 0 + alpha·sum, the same
//     single multiply a separate scaling sweep would apply.
//   - Context (probs·V) reduces over the context length, which spans DO
//     split — so spans are applied in ascending rounds, round 0 with beta=0
//     and later rounds with beta=1. gemmNN accumulates into C with one
//     multiply-add per element in strictly ascending k order, so round r
//     resumes the exact accumulation sequence round r-1 left off: the sum is
//     bit-for-bit the one-span kernel's, and with one span the rounds ARE
//     the contiguous kernel, group for group.
//   - On binary16 views the tensor-core numerics of §6.2.1 switch on: q is
//     rounded through binary16 once, spans are decoded into workspace
//     scratch at access (or read from the view's own decoded spans, where
//     it carries them), the probabilities are rounded in the softmax pass
//     (the cast a fused fp16 softmax performs when it writes into Tensor
//     Core registers), and all accumulation stays fp32.
//
// Every (session, span, head) problem runs through the same GEMM kernel the
// per-row oracle (model.Decoder.attend) dispatches, so the grouped path is
// bit-identical to it — parallelism across the flattened problem space
// changes wall-clock, never results.

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

// DecodeWorkspace holds the grow-only group descriptors, offset table and
// binary16 conversion scratch the decode kernel builds per call, so a decode
// loop that runs it every sub-layer of every iteration does not churn small
// allocations. The zero value is ready to use; a workspace must not be
// shared between concurrent calls.
type DecodeWorkspace struct {
	groups []blas.StridedBatch
	offs   []int

	// Binary16 views only: the query rows rounded through binary16, and the
	// fp32 expansion of the spans the current phase reads (host-side
	// emulation of the MMA load conversion, not device memory).
	qr, spanF []float32
}

// growF32 returns buf resized to n, reallocating to the next power of two
// when it is outgrown: decode contexts grow by a row per step, and an
// exact-fit buffer would be reallocated on every one of them.
func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		buf = make([]float32, 1<<bits.Len(uint(n-1)))
	}
	return buf[:n]
}

// Attention runs grouped decode attention for one ragged batch: scaled
// scores, softmax, context. keys[i]/vals[i] are session i's views, of which
// the first ctxLens[i] rows are attended; all views share one storage
// format. scores is caller-provided scratch of at least heads*Σ ctxLens
// floats; ctx receives [rows, hidden], previous contents ignored.
func (ws *DecodeWorkspace) Attention(q []float32, keys, vals []KVSpans, ctxLens []int, heads, headDim int, scale float32, scores, ctx []float32) {
	rows := len(ctxLens)
	if len(keys) != rows || len(vals) != rows {
		panic(fmt.Sprintf("kernels: DecodeAttention %d sessions with %d/%d key/val views", rows, len(keys), len(vals)))
	}
	if rows == 0 {
		return
	}
	hidden := heads * headDim
	checkLen("DecodeAttention q", q, rows*hidden)
	checkLen("DecodeAttention ctx", ctx, rows*hidden)
	checkLen("DecodeAttention scores", scores, decodeScoreFloats(ctxLens, heads))
	half := keys[0].Half()
	sumCtx, spans, maxSpans := 0, 0, 0
	for i, T := range ctxLens {
		if !keys[i].Covers(T, hidden) || !vals[i].Covers(T, hidden) {
			panic(fmt.Sprintf("kernels: DecodeAttention session %d views do not hold %d rows of %d", i, T, hidden))
		}
		if keys[i].Half() != half || vals[i].Half() != half {
			panic(fmt.Sprintf("kernels: DecodeAttention session %d mixes storage formats", i))
		}
		sumCtx += T
		spans += keys[i].count(T)
		maxSpans = max(maxSpans, vals[i].count(T))
	}
	if half {
		ws.qr = growF32(ws.qr, rows*hidden)
		tensor.RoundF16Into(ws.qr, q[:rows*hidden])
		q = ws.qr
		ws.spanF = growF32(ws.spanF, sumCtx*hidden)
	}
	// offs[i] = element offset of session i's score region.
	if cap(ws.offs) < rows {
		ws.offs = make([]int, rows)
	}
	offs := ws.offs[:rows]

	// Scores: one group per (session, span), each writing its own column
	// range of the session's [heads, T] score region.
	if cap(ws.groups) < spans {
		ws.groups = make([]blas.StridedBatch, 0, spans)
	}
	groups := ws.groups[:0]
	off, done := 0, 0
	for i, T := range ctxLens {
		offs[i] = off
		for b := 0; b < keys[i].count(T); b++ {
			n := keys[i].rowsIn(T, b)
			groups = append(groups, blas.StridedBatch{
				M: 1, N: n, K: headDim,
				A: q[i*hidden:], Lda: headDim, StrideA: headDim,
				B: keys[i].decodeSpan(b, n*hidden, ws.spanF, done*hidden), Ldb: hidden, StrideB: headDim,
				C: scores[off+b*keys[i].Rows:], Ldc: T, StrideC: T,
				Count: heads,
			})
			done += n
		}
		off += heads * T
	}
	blas.GroupedStridedBatchedGemm(false, true, scale, 0, groups)

	parallel.For(rows*heads, rowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			n := ctxLens[r/heads]
			start := offs[r/heads] + (r%heads)*n
			row := scores[start : start+n]
			softmaxRow(row)
			if half {
				tensor.RoundSliceF16(row)
			}
		}
	})

	// Context: ascending rounds over each session's value spans.
	done = 0
	for round := 0; round < maxSpans; round++ {
		groups = groups[:0]
		for i, T := range ctxLens {
			if round >= vals[i].count(T) {
				continue
			}
			n := vals[i].rowsIn(T, round)
			groups = append(groups, blas.StridedBatch{
				M: 1, N: headDim, K: n,
				A: scores[offs[i]+round*vals[i].Rows:], Lda: T, StrideA: T,
				B: vals[i].decodeSpan(round, n*hidden, ws.spanF, done*hidden), Ldb: hidden, StrideB: headDim,
				C: ctx[i*hidden:], Ldc: headDim, StrideC: headDim,
				Count: heads,
			})
			done += n
		}
		beta := float32(1)
		if round == 0 {
			beta = 0
		}
		blas.GroupedStridedBatchedGemm(false, false, 1, beta, groups)
	}
	// Drop the KV/score references captured in the descriptors, so a
	// workspace held by an idle decode loop does not pin closed sessions'
	// storage.
	clear(ws.groups[:cap(ws.groups)])
}
