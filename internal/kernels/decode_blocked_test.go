package kernels

import (
	"math/rand"
	"testing"
)

// pageKV splits one session's contiguous [T, hidden] context into
// blockTokens-row spans, the view a paged KV cache hands the kernel. Spans
// are full-capacity (blockTokens*hidden) with only the leading rows
// meaningful, exactly like a partially filled tail block in the pool.
func pageKV(contig []float32, T, blockTokens, hidden int, rng *rand.Rand) KVSpans {
	var blocks [][]float32
	for b := 0; b*blockTokens < T; b++ {
		rows := T - b*blockTokens
		if rows > blockTokens {
			rows = blockTokens
		}
		blk := make([]float32, blockTokens*hidden)
		// Poison the unused tail so a kernel reading past its rows shows up.
		for i := rows * hidden; i < len(blk); i++ {
			blk[i] = float32(rng.NormFloat64()) * 1e6
		}
		copy(blk, contig[b*blockTokens*hidden:(b*blockTokens+rows)*hidden])
		blocks = append(blocks, blk)
	}
	return KVSpans{F32: blocks, Rows: blockTokens}
}

// TestDecodeAttentionBlockedBitIdenticalFuzz is the paged-KV correctness
// tentpole: on fuzzed ragged batches the kernel over many-span views — K/V
// read through block tables with partially filled tails — must produce
// probabilities and context vectors BIT-IDENTICAL to the one-span views.
// Exact comparison, no tolerance: the span walk must preserve the one-span
// floating-point accumulation order (see the design comment in decode.go).
func TestDecodeAttentionBlockedBitIdenticalFuzz(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		rows := 1 + rng.Intn(6)
		heads := 1 + rng.Intn(4)
		headDim := []int{4, 8, 16}[rng.Intn(3)]
		blockTokens := []int{1, 3, 8, 32}[rng.Intn(4)]
		// Context lengths straddle block boundaries: below, at, and past
		// multiples of blockTokens, including exact-fit tails.
		q, keys, vals, ctxLens := randomDecodeBatch(rng, rows, heads, headDim, 3*blockTokens+5)
		if rng.Intn(2) == 0 && ctxLens[0] >= blockTokens {
			ctxLens[0] -= ctxLens[0] % blockTokens // exact block-multiple fit
			keys[0] = keys[0][:ctxLens[0]*heads*headDim]
			vals[0] = vals[0][:ctxLens[0]*heads*headDim]
		}
		keyBlocks := make([]KVSpans, rows)
		valBlocks := make([]KVSpans, rows)
		for i := 0; i < rows; i++ {
			keyBlocks[i] = pageKV(keys[i], ctxLens[i], blockTokens, heads*headDim, rng)
			valBlocks[i] = pageKV(vals[i], ctxLens[i], blockTokens, heads*headDim, rng)
		}

		scoreLen := decodeScoreFloats(ctxLens, heads)
		hidden := heads * headDim
		scale := 1 / float32(headDim)

		var wantWS, gotWS DecodeWorkspace
		wantScores := make([]float32, scoreLen)
		wantCtx := make([]float32, rows*hidden)
		wantWS.Attention(q, oneSpans(keys, ctxLens, false), oneSpans(vals, ctxLens, false), ctxLens, heads, headDim, scale, wantScores, wantCtx)

		gotScores := make([]float32, scoreLen)
		gotCtx := make([]float32, rows*hidden)
		gotWS.Attention(q, keyBlocks, valBlocks, ctxLens, heads, headDim, scale, gotScores, gotCtx)

		for i := range wantScores {
			if gotScores[i] != wantScores[i] {
				t.Fatalf("trial %d (block %d): score[%d] blocked %v vs contiguous %v",
					trial, blockTokens, i, gotScores[i], wantScores[i])
			}
		}
		for i := range wantCtx {
			if gotCtx[i] != wantCtx[i] {
				t.Fatalf("trial %d (block %d): ctx[%d] blocked %v vs contiguous %v",
					trial, blockTokens, i, gotCtx[i], wantCtx[i])
			}
		}
	}
}

// TestDecodeBlockedRejectsShortTable: a block table that does not cover the
// declared context length must panic loudly, not read stale rows.
func TestDecodeBlockedRejectsShortTable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short block table did not panic")
		}
	}()
	q := make([]float32, 8)
	blocks := []KVSpans{{F32: [][]float32{make([]float32, 4*8)}, Rows: 4}} // 1 block of 4 rows
	// ctxLen 5 needs two blocks of 4.
	decodeAttention(q, blocks, blocks, []int{5}, 2, 4, 1, make([]float32, 2*5), make([]float32, 8))
}
