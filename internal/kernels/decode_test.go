package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
)

// refDecodeAttention is an independent scalar implementation of ragged
// single-query attention (straight from the math, no blas), used as the
// numerical reference for the grouped kernels.
func refDecodeAttention(q []float32, keys, vals [][]float32, ctxLens []int, heads, headDim int, scale float32) []float32 {
	hidden := heads * headDim
	out := make([]float32, len(ctxLens)*hidden)
	for i, T := range ctxLens {
		for h := 0; h < heads; h++ {
			off := h * headDim
			scores := make([]float64, T)
			maxv := math.Inf(-1)
			for t := 0; t < T; t++ {
				var dot float64
				for d := 0; d < headDim; d++ {
					dot += float64(q[i*hidden+off+d]) * float64(keys[i][t*hidden+off+d])
				}
				scores[t] = dot * float64(scale)
				if scores[t] > maxv {
					maxv = scores[t]
				}
			}
			var sum float64
			for t := range scores {
				scores[t] = math.Exp(scores[t] - maxv)
				sum += scores[t]
			}
			for t := range scores {
				scores[t] /= sum
			}
			for d := 0; d < headDim; d++ {
				var acc float64
				for t := 0; t < T; t++ {
					acc += scores[t] * float64(vals[i][t*hidden+off+d])
				}
				out[i*hidden+off+d] = float32(acc)
			}
		}
	}
	return out
}

func randomDecodeBatch(rng *rand.Rand, rows, heads, headDim, maxCtx int) (q []float32, keys, vals [][]float32, ctxLens []int) {
	hidden := heads * headDim
	q = make([]float32, rows*hidden)
	for i := range q {
		q[i] = float32(rng.NormFloat64())
	}
	for r := 0; r < rows; r++ {
		T := 1 + rng.Intn(maxCtx)
		k := make([]float32, T*hidden)
		v := make([]float32, T*hidden)
		for i := range k {
			k[i] = float32(rng.NormFloat64())
			v[i] = float32(rng.NormFloat64())
		}
		keys = append(keys, k)
		vals = append(vals, v)
		ctxLens = append(ctxLens, T)
	}
	return q, keys, vals, ctxLens
}

// oneSpans wraps each session's contiguous [T, hidden] rows as a one-span
// view — fp32 storage, or binary16 when half.
func oneSpans(data [][]float32, lens []int, half bool) []KVSpans {
	views := make([]KVSpans, len(data))
	for i := range data {
		views[i] = OneSpan(data[i], lens[i], half)
	}
	return views
}

// decodeAttention runs the kernel on a throwaway workspace.
func decodeAttention(q []float32, keys, vals []KVSpans, ctxLens []int, heads, headDim int, scale float32, scores, ctx []float32) {
	(&DecodeWorkspace{}).Attention(q, keys, vals, ctxLens, heads, headDim, scale, scores, ctx)
}

// TestDecodeAttentionMatchesScalarReference checks the grouped path against
// the independent float64 reference on fuzzed ragged batches.
func TestDecodeAttentionMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		heads := 1 + rng.Intn(4)
		headDim := 1 + rng.Intn(8)
		rows := 1 + rng.Intn(6)
		q, keys, vals, lens := randomDecodeBatch(rng, rows, heads, headDim, 33)
		scale := float32(1 / math.Sqrt(float64(headDim)))

		hidden := heads * headDim
		scores := make([]float32, decodeScoreFloats(lens, heads))
		ctx := make([]float32, rows*hidden)
		decodeAttention(q, oneSpans(keys, lens, false), oneSpans(vals, lens, false), lens, heads, headDim, scale, scores, ctx)

		want := refDecodeAttention(q, keys, vals, lens, heads, headDim, scale)
		for i := range want {
			if d := math.Abs(float64(ctx[i] - want[i])); d > 1e-4 {
				t.Fatalf("trial %d: ctx[%d] = %g, reference %g (|Δ|=%g)", trial, i, ctx[i], want[i], d)
			}
		}
	}
}

// TestDecodeAttentionBitIdenticalToPerRowGemm pins the bit-identity claim
// the generator's oracle rests on: the grouped call must produce EXACTLY
// the floats a per-(session, head) blas.Gemm loop produces, because both
// dispatch the same GEMM kernel per problem. The loop below applies the
// softmax scale as its own sweep, so this also pins that folding it into the
// score GEMM's alpha changes no bit.
func TestDecodeAttentionBitIdenticalToPerRowGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		heads := 1 + rng.Intn(4)
		headDim := 1 + rng.Intn(8)
		rows := 1 + rng.Intn(6)
		q, keys, vals, lens := randomDecodeBatch(rng, rows, heads, headDim, 40)
		scale := float32(1 / math.Sqrt(float64(headDim)))
		hidden := heads * headDim

		scores := make([]float32, decodeScoreFloats(lens, heads))
		got := make([]float32, rows*hidden)
		decodeAttention(q, oneSpans(keys, lens, false), oneSpans(vals, lens, false), lens, heads, headDim, scale, scores, got)

		// Per-row oracle: one Gemm + scale + softmax + Gemm per (session,
		// head).
		want := make([]float32, rows*hidden)
		for i, T := range lens {
			rowScores := make([]float32, T)
			for h := 0; h < heads; h++ {
				off := h * headDim
				blas.Gemm(false, true, 1, T, headDim, 1, q[i*hidden+off:i*hidden+off+headDim], headDim, keys[i][off:], hidden, 0, rowScores, T)
				for tIdx := range rowScores {
					rowScores[tIdx] *= scale
				}
				Softmax(rowScores, 1, T)
				blas.Gemm(false, false, 1, headDim, T, 1, rowScores, T, vals[i][off:], hidden, 0, want[i*hidden+off:i*hidden+off+headDim], headDim)
			}
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: ctx[%d] = %v, per-row %v — grouped path not bit-identical", trial, i, got[i], want[i])
			}
		}
	}
}

// TestDecodeSoftmaxRowsNormalise: the probabilities the kernel leaves in the
// score buffer sum to one over every ragged row's own length.
func TestDecodeSoftmaxRowsNormalise(t *testing.T) {
	const heads, headDim = 2, 4
	q, keys, vals, lens := randomDecodeBatch(rand.New(rand.NewSource(3)), 3, heads, headDim, 7)
	scores := make([]float32, decodeScoreFloats(lens, heads))
	ctx := make([]float32, len(lens)*heads*headDim)
	decodeAttention(q, oneSpans(keys, lens, false), oneSpans(vals, lens, false), lens, heads, headDim, 0.5, scores, ctx)
	off := 0
	for s, n := range lens {
		for h := 0; h < heads; h++ {
			var sum float64
			for j := 0; j < n; j++ {
				sum += float64(scores[off+h*n+j])
			}
			if math.Abs(sum-1) > 1e-5 {
				t.Fatalf("session %d head %d: row sums to %g", s, h, sum)
			}
		}
		off += heads * n
	}
}

// TestDecodeAttentionRejectsBadShapes: zero-length contexts and mismatched
// gather lists are programming bugs and must panic.
func TestDecodeAttentionRejectsBadShapes(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	q := make([]float32, 4)
	kv := []KVSpans{OneSpan(make([]float32, 4), 1, false)}
	expectPanic("zero context", func() {
		decodeAttention(q, kv, kv, []int{0}, 2, 2, 1, make([]float32, 4), make([]float32, 4))
	})
	expectPanic("mismatched gather", func() {
		decodeAttention(q, kv, nil, []int{1}, 2, 2, 1, make([]float32, 4), make([]float32, 4))
	})
	expectPanic("short scores", func() {
		decodeAttention(q, kv, kv, []int{1}, 2, 2, 1, make([]float32, 1), make([]float32, 4))
	})
	expectPanic("mixed storage formats", func() {
		decodeAttention(q, kv, []KVSpans{OneSpan(make([]float32, 4), 1, true)}, []int{1}, 2, 2, 1, make([]float32, 4), make([]float32, 4))
	})
}

// BenchmarkDecodeAttention times the one decode-attention kernel at the
// ledger's decoder shape (hidden 128, 4 heads, batch 8) over the two axes the
// span view hides: how many spans a session's rows are split into (one, as a
// contiguous cache hands them over, or 32-row blocks, as the paged cache
// does) and how they are stored. The workspace supplies every buffer: on one
// P the only allocation is the softmax sweep's closure (1/op), and with more
// workers the rest is goroutine dispatch (14 and 26/op at -cpu 2).
func BenchmarkDecodeAttention(b *testing.B) {
	const heads, headDim, rows, ctxLen, blockRows = 4, 32, 8, 100, 32
	hidden := heads * headDim
	r := rand.New(rand.NewSource(5))
	q := randVec(r, rows*hidden)
	lens, keys, vals := make([]int, rows), make([][]float32, rows), make([][]float32, rows)
	for i := range lens {
		lens[i], keys[i], vals[i] = ctxLen, randVec(r, ctxLen*hidden), randVec(r, ctxLen*hidden)
	}
	// paged re-cuts one-span views into blockRows-row spans of their own.
	paged := func(one []KVSpans) []KVSpans {
		out := make([]KVSpans, len(one))
		for i, v := range one {
			out[i].Rows = blockRows
			for lo := 0; lo < ctxLen; lo += blockRows {
				hi := min(lo+blockRows, ctxLen) * hidden
				if v.Half() {
					out[i].F16 = append(out[i].F16, v.F16[0][lo*hidden:hi])
				} else {
					out[i].F32 = append(out[i].F32, v.F32[0][lo*hidden:hi])
				}
			}
		}
		return out
	}
	for _, layout := range []string{"one-span", "32-row-spans"} {
		for _, prec := range []string{"fp32", "fp16"} {
			k, v := oneSpans(keys, lens, prec == "fp16"), oneSpans(vals, lens, prec == "fp16")
			if layout != "one-span" {
				k, v = paged(k), paged(v)
			}
			b.Run(layout+"/"+prec, func(b *testing.B) {
				var ws DecodeWorkspace
				scores := make([]float32, decodeScoreFloats(lens, heads))
				ctx := make([]float32, rows*hidden)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ws.Attention(q, k, v, lens, heads, headDim, 0.176, scores, ctx)
				}
			})
		}
	}
}
