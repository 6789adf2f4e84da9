package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/allocator"
	"repro/internal/blas"
	"repro/internal/tensor"
)

// Golden fp16 outputs, recorded at the commit BEFORE the convert-once
// rewrite (PR 12's parent, where every GEMM decoded binary16 operands per
// call) and required to hold after it: the fp16 route's numerics are
// defined by where values round through binary16, not by how the rounding
// is implemented, so a faster implementation must reproduce these digests
// bit for bit. The digests cover float arithmetic whose fusion differs by
// architecture, so they are pinned on amd64 only.
//
// The three maps were re-recorded once since, at PR 16's second commit — the
// round's one deliberate bit change: Softmax and GELU moved from float64 libm
// to the float32 expf of DESIGN.md §2 (under 1 ULP from it). Every token
// stream stayed; the logits digests moved — all six on fp32, and on fp16,
// whose binary16 roundings absorb most one-ulp changes, only seed 9005 and
// packed batch 1. The assembly and -tags purego builds record the same
// digests, and every relative oracle (padded == packed, batched == solo,
// grouped == per-row, paged == contiguous, export→import) held unmodified.
//
// The token-stream digests were recorded on a contiguous and a paged cell,
// both required to match; since the contiguous store's removal the paged
// cell alone reproduces them, unchanged.

func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests were recorded on amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
}

func digestStreams(streams [][]int) string {
	h := sha256.New()
	var b [8]byte
	for _, s := range streams {
		binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
		h.Write(b[:])
		for _, tok := range s {
			binary.LittleEndian.PutUint64(b[:], uint64(tok))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func digestFloats(x []float32) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range x {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// goldenSchedule draws one fuzzed ragged schedule: session count, prompt
// memory lengths, decode budgets (long enough to cross the 64-token fp16
// block boundary), join steps and mid-run evictions.
func goldenSchedule(seed int64) (mems, budgets, joinAt, evictAt []int) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(6)
	mems, budgets = make([]int, n), make([]int, n)
	joinAt, evictAt = make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		mems[i] = 1 + rng.Intn(23)
		budgets[i] = 1 + rng.Intn(90)
		joinAt[i] = rng.Intn(9)
		evictAt[i] = -1
		if rng.Intn(4) == 0 {
			evictAt[i] = 1 + rng.Intn(12)
		}
	}
	joinAt[0] = 0
	return
}

// goldenRun drives one schedule and digests, besides the token streams, the
// vocabulary logits of every decode iteration — the greedy argmax alone is
// too coarse to notice a one-ulp drift.
func goldenRun(t *testing.T, g *Generator, mems, budgets, joinAt, evictAt []int, seed int64) (streams, logits string) {
	t.Helper()
	lh := sha256.New()
	var b [4]byte
	out := scheduleRun(t, g, mems, budgets, joinAt, evictAt, seed, func(live []*GenSession) {
		for _, v := range g.dec.scr.logits[:len(live)*g.Cfg.Vocab] {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			lh.Write(b[:])
		}
	})
	return digestStreams(out), hex.EncodeToString(lh.Sum(nil)[:8])
}

// checkGoldenStreams runs every recorded schedule on a generator of the
// given precision, which must reproduce the recorded {streams, logits} pair.
func checkGoldenStreams(t *testing.T, fp16 bool, want map[int64][2]string) {
	t.Helper()
	skipUnlessAMD64(t)
	cfg := genTestConfig()
	cfg.MaxTargetLen = 96
	for seed := int64(9001); seed <= 9006; seed++ {
		mems, budgets, joinAt, evictAt := goldenSchedule(seed)
		g, _, _ := newTestGenerator(t, cfg, 0, 0)
		if fp16 {
			g.EnableFP16()
		}
		streams, logits := goldenRun(t, g, mems, budgets, joinAt, evictAt, seed)
		if got := [2]string{streams, logits}; got != want[seed] {
			t.Errorf("seed %d fp16=%v (%d sessions): digests %q, recorded %q", seed, fp16, len(mems), got, want[seed])
		}
	}
}

// TestGoldenFP16TokenStreams pins greedy fp16 token streams (and the logits
// behind them) on fuzzed ragged schedules.
func TestGoldenFP16TokenStreams(t *testing.T) {
	checkGoldenStreams(t, true, map[int64][2]string{ // seed → {streams, logits}
		9001: {"9135684df55279ae", "500374c0fa8a6e15"},
		9002: {"9482c34fa35744d1", "6f6102d9423d4d28"},
		9003: {"8c3e8fcf10ca1acf", "e1c0e9290ccdb8d4"},
		9004: {"a43ba5210bc073a5", "3d66442fad2ca0f6"},
		9005: {"9a8c2d2518170a5d", "a20e8c5f5a843e3e"},
		9006: {"c70a8826375c83f5", "8fb85114117a0c90"},
	})
}

// TestGoldenFP32TokenStreams pins the fp32 route on the same schedules. The
// digests were recorded at PR 13's parent — separate Scores/ScaledSoftmax/
// Context kernels per KV layout, the softmax scale applied as its own sweep
// — and must hold over the one span kernel with the scale folded into the
// score GEMM's alpha: the proof that the collapse changed no fp32 bit.
func TestGoldenFP32TokenStreams(t *testing.T) {
	checkGoldenStreams(t, false, map[int64][2]string{
		9001: {"9135684df55279ae", "6f8665e43c95a960"},
		9002: {"9482c34fa35744d1", "856485c5bae8d1ac"},
		9003: {"8c3e8fcf10ca1acf", "c8c979ecb6b796aa"},
		9004: {"a43ba5210bc073a5", "7024669f69d306ba"},
		9005: {"9a8c2d2518170a5d", "bb80234a07cd18b4"},
		9006: {"c70a8826375c83f5", "d47829a4707a633c"},
	})
}

// TestGoldenFP16PackedLogits pins the fp16 packed classifier's logits
// (embedding → fused-chain encoder on the binary16 route → head) on fixed
// mixed-length batches.
func TestGoldenFP16PackedLogits(t *testing.T) {
	skipUnlessAMD64(t)
	cfg := BertBase().Scaled(32, 4, 64, 2)
	enc, err := NewEncoderFusedChains(cfg, 11, allocator.NewTurbo(allocator.NewDevice()))
	if err != nil {
		t.Fatal(err)
	}
	enc.EnableFP16()
	emb := NewEmbedding(cfg, 12)
	head := NewClassifier(cfg.Hidden, 5, 13)
	want := []string{
		"a27ba3034353847e", "4b0d9c6483693ff9", "8906f7c1b2007cb7",
		"23cff6e3f89394dd", "9b9759dc54fd2eb3", "85b815254f964fe6",
	}
	rng := rand.New(rand.NewSource(9100))
	for trial := range want {
		batch := fuzzBatch(rng, cfg.Vocab)
		in, err := emb.EncodePacked(batch)
		if err != nil {
			t.Fatal(err)
		}
		hidden, _, err := enc.ForwardPacked(in)
		if err != nil {
			t.Fatal(err)
		}
		logits, err := head.LogitsPacked(hidden)
		if err != nil {
			t.Fatal(err)
		}
		if got := digestFloats(logits.Data()); got != want[trial] {
			t.Errorf("batch %d (%d requests): digest %q, recorded %q", trial, len(batch), got, want[trial])
		}
	}
}

// TestFP16ProjectionMatchesGemmF16Oracle keeps the storage-form primitive as
// the oracle of the fp16 route: a decoder projection computed the way Step
// does it — activation rounded once, then the weight EnableFP16 stored —
// must equal blas.GemmF16 over the EncodeHalf'ed activation and ORIGINAL
// weight bit for bit, for all ten weights of every layer and the vocabulary
// projection, at 1, 2, 3 and 8 rows (B converted in the GEMM's load, where
// blas.HalfInLoad holds) and 9 (B decoded once). The other storage form —
// binary16-valued fp32 where the CPU converts in the load, binary16 where it
// does not — must match too.
func TestFP16ProjectionMatchesGemmF16Oracle(t *testing.T) {
	cfg := genTestConfig()
	d, err := NewDecoder(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	d.EnableFP16()
	type weight struct {
		name string
		orig *tensor.Tensor
		half halfWeight
	}
	weights := []weight{{"proj", d.Proj, d.projF16}}
	for l := range d.layers {
		lw, hw := &d.layers[l], d.halves(l)
		for _, w := range []weight{
			{"selfWq", lw.selfWq, hw.selfWq}, {"selfWk", lw.selfWk, hw.selfWk},
			{"selfWv", lw.selfWv, hw.selfWv}, {"selfWo", lw.selfWo, hw.selfWo},
			{"crossWq", lw.crossWq, hw.crossWq}, {"crossWk", lw.crossWk, hw.crossWk},
			{"crossWv", lw.crossWv, hw.crossWv}, {"crossWo", lw.crossWo, hw.crossWo},
			{"ffnW1", lw.ffnW1, hw.ffnW1}, {"ffnW2", lw.ffnW2, hw.ffnW2},
		} {
			w.name = fmt.Sprintf("layer %d %s", l, w.name)
			weights = append(weights, w)
		}
	}
	for wi, w := range weights {
		if (w.half.h != nil) != blas.HalfInLoad() {
			t.Fatalf("%s: stored as binary16: %v, GemmHalfB converts in the load: %v", w.name, w.half.h != nil, blas.HalfInLoad())
		}
		other := halfWeight{h: blas.EncodeHalf(w.orig.Data())}
		if w.half.h != nil {
			other = halfWeight{f: w.orig.RoundedF16().Data()}
		}
		k, n := w.orig.Dim(0), w.orig.Dim(1)
		for _, rows := range []int{1, 2, 3, 8, 9} {
			x := tensor.RandN(int64(300+wi), 1.5, rows, k).Data()

			want := make([]float32, rows*n)
			blas.GemmF16(false, false, rows, n, k, 1, blas.EncodeHalf(x), k, blas.EncodeHalf(w.orig.Data()), n, 0, want, n)

			xr := make([]float32, len(x))
			tensor.RoundF16Into(xr, x)
			for form, hw := range []halfWeight{w.half, other} {
				got := make([]float32, rows*n)
				project(rows, xr, w.orig, hw, got)
				if digestFloats(got) != digestFloats(want) {
					t.Fatalf("%s, %d rows, storage form %d: fp16 projection diverges from GemmF16 over encoded operands", w.name, rows, form)
				}
			}
		}
	}
}
