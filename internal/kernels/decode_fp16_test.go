package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/tensor"
)

func randVec(r *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(r.NormFloat64())
	}
	return s
}

// perRowF16Attention is the scalar-per-row fp16 oracle, built on the
// storage-form primitive blas.GemmF16 rather than anything the kernel calls:
// for each session and head, a rounded-q dot binary16-K GEMM with the scale
// in alpha, softmax, binary16 rounding of the probabilities, then probs dot
// binary16-V. q and the probabilities are binary16-valued when they are
// encoded, so the encode is exact.
func perRowF16Attention(q []float32, keys, vals []blas.Half, ctxLens []int, heads, headDim int, scale float32) []float32 {
	hidden := heads * headDim
	ctx := make([]float32, len(ctxLens)*hidden)
	for i, T := range ctxLens {
		qr := append([]float32(nil), q[i*hidden:(i+1)*hidden]...)
		tensor.RoundSliceF16(qr)
		for h := 0; h < heads; h++ {
			off := h * headDim
			scores := make([]float32, T)
			blas.GemmF16(false, true, 1, T, headDim, scale, blas.EncodeHalf(qr[off:off+headDim]), headDim, keys[i][off:], hidden, 0, scores, T)
			Softmax(scores, 1, T)
			tensor.RoundSliceF16(scores)
			blas.GemmF16(false, false, 1, headDim, T, 1, blas.EncodeHalf(scores), T, vals[i][off:], hidden, 0, ctx[i*hidden+off:i*hidden+off+headDim], headDim)
		}
	}
	return ctx
}

// halfSpans wraps each session's contiguous binary16 rows as a one-span view.
func halfSpans(data []blas.Half, lens []int) []KVSpans {
	views := make([]KVSpans, len(data))
	for i := range data {
		views[i] = KVSpans{F16: [][]uint16{data[i]}, Rows: lens[i]}
	}
	return views
}

// TestDecodeAttentionF16MatchesPerRowOracle pins the grouped fp16 decode
// attention bit-identical to the per-row fp16 oracle on a ragged batch.
func TestDecodeAttentionF16MatchesPerRowOracle(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	const heads, headDim = 4, 8
	hidden := heads * headDim
	ctxLens := []int{17, 3, 64, 1, 40}
	rows := len(ctxLens)
	scale := float32(1 / math.Sqrt(headDim))

	q := randVec(r, rows*hidden)
	keys := make([]blas.Half, rows)
	vals := make([]blas.Half, rows)
	for i, T := range ctxLens {
		keys[i] = blas.EncodeHalf(randVec(r, T*hidden))
		vals[i] = blas.EncodeHalf(randVec(r, T*hidden))
	}
	want := perRowF16Attention(q, keys, vals, ctxLens, heads, headDim, scale)

	scores := make([]float32, decodeScoreFloats(ctxLens, heads))
	got := make([]float32, rows*hidden)
	var ws DecodeWorkspace
	ws.Attention(q, halfSpans(keys, ctxLens), halfSpans(vals, ctxLens), ctxLens, heads, headDim, scale, scores, got)

	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("grouped fp16 diverges from per-row oracle at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestDecodeAttentionBlockedF16MatchesContiguous pins the paged fp16 path
// bit-identical to the contiguous fp16 path over the same logical rows,
// including partial tail blocks.
func TestDecodeAttentionBlockedF16MatchesContiguous(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	const heads, headDim, blockTok = 3, 8, 16
	hidden := heads * headDim
	ctxLens := []int{16, 5, 33, 48, 1}
	rows := len(ctxLens)
	scale := float32(1 / math.Sqrt(headDim))

	q := randVec(r, rows*hidden)
	keys := make([]blas.Half, rows)
	vals := make([]blas.Half, rows)
	keyBlocks := make([]KVSpans, rows)
	valBlocks := make([]KVSpans, rows)
	for i, T := range ctxLens {
		keys[i] = blas.EncodeHalf(randVec(r, T*hidden))
		vals[i] = blas.EncodeHalf(randVec(r, T*hidden))
		keyBlocks[i].Rows, valBlocks[i].Rows = blockTok, blockTok
		for b := 0; b*blockTok < T; b++ {
			n := min(blockTok, T-b*blockTok)
			// Oversized backing (full blocks) with only n rows meaningful,
			// as a real block pool hands out.
			kb := make(blas.Half, blockTok*hidden)
			vb := make(blas.Half, blockTok*hidden)
			copy(kb, keys[i][b*blockTok*hidden:b*blockTok*hidden+n*hidden])
			copy(vb, vals[i][b*blockTok*hidden:b*blockTok*hidden+n*hidden])
			keyBlocks[i].F16 = append(keyBlocks[i].F16, kb)
			valBlocks[i].F16 = append(valBlocks[i].F16, vb)
		}
	}

	scoreN := decodeScoreFloats(ctxLens, heads)
	want := make([]float32, rows*hidden)
	var ws1 DecodeWorkspace
	ws1.Attention(q, halfSpans(keys, ctxLens), halfSpans(vals, ctxLens), ctxLens, heads, headDim, scale, make([]float32, scoreN), want)

	got := make([]float32, rows*hidden)
	var ws2 DecodeWorkspace
	ws2.Attention(q, keyBlocks, valBlocks, ctxLens, heads, headDim, scale, make([]float32, scoreN), got)

	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("blocked fp16 diverges from contiguous at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestDecodeAttentionF16ToleranceVsFP32 bounds the fp16 route's deviation
// from the fp32 route — the kernel-level tolerance oracle. With normally
// distributed inputs and softmax-normalised probabilities the observed max
// relative error sits well below 1e-2; the documented bound is 2e-2.
func TestDecodeAttentionF16ToleranceVsFP32(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const heads, headDim = 4, 16
	hidden := heads * headDim
	ctxLens := []int{25, 7, 80}
	rows := len(ctxLens)
	scale := float32(1 / math.Sqrt(headDim))

	q := randVec(r, rows*hidden)
	keysF := make([][]float32, rows)
	valsF := make([][]float32, rows)
	keys := make([]blas.Half, rows)
	vals := make([]blas.Half, rows)
	for i, T := range ctxLens {
		keysF[i] = randVec(r, T*hidden)
		valsF[i] = randVec(r, T*hidden)
		keys[i] = blas.EncodeHalf(keysF[i])
		vals[i] = blas.EncodeHalf(valsF[i])
	}

	scoreN := decodeScoreFloats(ctxLens, heads)
	ref := make([]float32, rows*hidden)
	var ws1 DecodeWorkspace
	ws1.Attention(q, oneSpans(keysF, ctxLens, false), oneSpans(valsF, ctxLens, false), ctxLens, heads, headDim, scale, make([]float32, scoreN), ref)

	got := make([]float32, rows*hidden)
	var ws2 DecodeWorkspace
	ws2.Attention(q, halfSpans(keys, ctxLens), halfSpans(vals, ctxLens), ctxLens, heads, headDim, scale, make([]float32, scoreN), got)

	maxRel := 0.0
	for i := range got {
		rel := math.Abs(float64(got[i])-float64(ref[i])) / (math.Abs(float64(ref[i])) + 1e-3)
		if rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel > 2e-2 {
		t.Fatalf("fp16 decode attention max relative error %.4g exceeds 2e-2", maxRel)
	}
	if maxRel == 0 {
		t.Fatal("fp16 route suspiciously bit-identical to fp32 — rounding not applied?")
	}
}

// TestDecodeAttentionDecodedViewMatchesDecodeAtAccess: sessions whose
// binary16 spans carry their decoded view, sessions that do not, and a batch
// that mixes them (one with the view on its keys only) give the same bits as
// decoding every span at access; the per-row read ignores the view; a view
// too short for the rows is rejected, and so is a row written through one.
func TestDecodeAttentionDecodedViewMatchesDecodeAtAccess(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	const heads, headDim = 4, 8
	hidden := heads * headDim
	ctxLens := []int{40, 3, 17, 40}
	rows := len(ctxLens)
	scale := float32(1 / math.Sqrt(headDim))
	q := randVec(r, rows*hidden)
	keys, vals := make([]blas.Half, rows), make([]blas.Half, rows)
	for i, T := range ctxLens {
		keys[i] = blas.EncodeHalf(randVec(r, T*hidden))
		vals[i] = blas.EncodeHalf(randVec(r, T*hidden))
	}
	run := func(keys, vals []KVSpans) []float32 {
		ctx := make([]float32, rows*hidden)
		var ws DecodeWorkspace
		ws.Attention(q, keys, vals, ctxLens, heads, headDim, scale, make([]float32, decodeScoreFloats(ctxLens, heads)), ctx)
		return ctx
	}
	want := run(halfSpans(keys, ctxLens), halfSpans(vals, ctxLens))

	viewed := func(views []KVSpans, which ...int) []KVSpans {
		for _, i := range which {
			views[i].View = views[i].Decoded(ctxLens[i], hidden)
		}
		return views
	}
	for name, got := range map[string][]float32{
		"every session": run(viewed(halfSpans(keys, ctxLens), 0, 1, 2, 3), viewed(halfSpans(vals, ctxLens), 0, 1, 2, 3)),
		"mixed batch":   run(viewed(halfSpans(keys, ctxLens), 0, 2), viewed(halfSpans(vals, ctxLens), 2, 3)),
	} {
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: decoded view diverges from decode at access at %d: %g vs %g", name, i, got[i], want[i])
			}
		}
	}

	// The oracle's read expands the stored words whatever the view holds.
	liar := halfSpans(keys, ctxLens)[0]
	liar.View = [][]float32{make([]float32, ctxLens[0]*hidden)}
	for i, v := range liar.Decoded(ctxLens[0], hidden)[0] {
		if v != tensor.F16BitsToF32(keys[0][i]) {
			t.Fatalf("Decoded read the view at %d", i)
		}
	}
	short := halfSpans(keys, ctxLens)[0]
	short.View = [][]float32{make([]float32, ctxLens[0]*hidden-1)}
	if short.Covers(ctxLens[0], hidden) {
		t.Fatal("a view shorter than its rows covers them")
	}
	if flat := liar.Flatten(ctxLens[0], hidden); flat.View != nil {
		t.Fatal("Flatten copied the decoded view")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a row written through a decoded view did not panic")
		}
	}()
	liar.PutRow(0, make([]float32, hidden))
}
