package model

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/allocator"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// tiny returns a small-but-structural encoder config for CPU tests.
func tiny() Config {
	return BertBase().Scaled(32, 4, 64, 3)
}

func tinyDecoder() Config {
	c := Seq2SeqDecoder().Scaled(32, 4, 64, 2)
	c.MaxTargetLen = 16
	return c
}

func TestConfigsValidate(t *testing.T) {
	for _, c := range allConfigs() {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
}

func TestTable3Parameters(t *testing.T) {
	b := BertBase()
	if b.Layers != 12 || b.Heads != 12 || b.Hidden != 768 || b.Inter != 3072 {
		t.Fatalf("BertBase: %+v", b)
	}
	a := Albert()
	if a.Layers != 12 || a.Heads != 64 || a.Hidden != 4096 || a.Inter != 16384 || !a.ShareLayers {
		t.Fatalf("Albert: %+v", a)
	}
	d := DistilBert()
	if d.Layers != 6 || d.Heads != 12 || d.Hidden != 768 {
		t.Fatalf("DistilBert: %+v", d)
	}
	s := Seq2SeqDecoder()
	if s.Layers != 6 || s.Heads != 16 || s.BeamSize != 4 || s.MaxTargetLen != 500 || !s.IsDecoder {
		t.Fatalf("Seq2SeqDecoder: %+v", s)
	}
}

func TestConfigValidationErrors(t *testing.T) {
	bad := Config{Name: "bad", Layers: 1, Hidden: 10, Heads: 3, Inter: 4}
	if bad.Validate() == nil {
		t.Fatal("indivisible hidden/heads should fail")
	}
	dec := Config{Name: "dec", Layers: 1, Hidden: 8, Heads: 2, Inter: 4, IsDecoder: true}
	if dec.Validate() == nil {
		t.Fatal("decoder without beam size should fail")
	}
}

func TestEncoderForwardShapes(t *testing.T) {
	cfg := tiny()
	enc, err := NewEncoder(cfg, 1, allocator.NewTurbo(allocator.NewDevice()), true)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.RandN(2, 1, 2, 7, cfg.Hidden)
	out, stats, err := enc.Forward(in, []int{7, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out.Shape(), in.Shape()) {
		t.Fatalf("output shape %v", out.Shape())
	}
	if stats.FootprintBytes == 0 {
		t.Fatal("stats missing")
	}
	if len(enc.execs) != cfg.Layers {
		t.Fatalf("layers = %d", len(enc.execs))
	}
}

func TestEncoderFusedMatchesUnfused(t *testing.T) {
	cfg := tiny()
	fused, err := NewEncoder(cfg, 5, allocator.NewTurbo(allocator.NewDevice()), true)
	if err != nil {
		t.Fatal(err)
	}
	unfused, err := NewEncoder(cfg, 5, allocator.NewTurbo(allocator.NewDevice()), false)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.RandN(9, 1, 1, 11, cfg.Hidden)
	a, _, err := fused.Forward(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := unfused.Forward(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AllClose(a.Data(), b.Data(), 1e-3, 1e-3) {
		t.Fatalf("fused vs unfused stack diverges: %g", a.MaxAbsDiff(b))
	}
}

func TestAlbertSharesWeights(t *testing.T) {
	cfg := tiny()
	cfg.ShareLayers = true
	enc, err := NewEncoder(cfg, 1, allocator.NewTurbo(allocator.NewDevice()), true)
	if err != nil {
		t.Fatal(err)
	}
	// Shared weights: executors must literally alias the same tensors.
	w0 := enc.execs[0].Weights
	w1 := enc.execs[1].Weights
	for id, w := range w0 {
		if w1[id] != w {
			t.Fatal("ALBERT layers must share weight tensors")
		}
	}
}

func TestEncoderRejectsDecoderConfig(t *testing.T) {
	if _, err := NewEncoder(tinyDecoder(), 1, allocator.NewTurbo(allocator.NewDevice()), true); err == nil {
		t.Fatal("expected error")
	}
}

func TestEmbeddingEncode(t *testing.T) {
	cfg := tiny()
	emb := NewEmbedding(cfg, 3)
	hidden, seqLens, err := emb.Encode([][]int{{1, 2, 3}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if hidden.Dim(0) != 2 || hidden.Dim(1) != 3 || hidden.Dim(2) != cfg.Hidden {
		t.Fatalf("shape %v", hidden.Shape())
	}
	if seqLens[0] != 3 || seqLens[1] != 2 {
		t.Fatalf("seqLens %v", seqLens)
	}
	// Padding row (batch 1, pos 2) must be zero.
	pad := hidden.Data()[(1*3+2)*cfg.Hidden : (1*3+2)*cfg.Hidden+cfg.Hidden]
	for _, v := range pad {
		if v != 0 {
			t.Fatal("padding row not zero")
		}
	}
}

func TestEmbeddingPositionsDiffer(t *testing.T) {
	cfg := tiny()
	emb := NewEmbedding(cfg, 3)
	h, _, err := emb.Encode([][]int{{7, 7}})
	if err != nil {
		t.Fatal(err)
	}
	r0 := tensor.FromSlice(h.Data()[:cfg.Hidden], cfg.Hidden)
	r1 := tensor.FromSlice(h.Data()[cfg.Hidden:2*cfg.Hidden], cfg.Hidden)
	if r0.MaxAbsDiff(r1) == 0 {
		t.Fatal("same token at different positions must embed differently")
	}
}

func TestEmbeddingErrors(t *testing.T) {
	emb := NewEmbedding(tiny(), 1)
	if _, _, err := emb.Encode(nil); err == nil {
		t.Fatal("empty batch should fail")
	}
	if _, _, err := emb.Encode([][]int{{}}); err == nil {
		t.Fatal("empty sequences should fail")
	}
	if _, _, err := emb.Encode([][]int{{99999}}); err == nil {
		t.Fatal("out-of-vocab token should fail")
	}
}

func TestClassifierPredict(t *testing.T) {
	cfg := tiny()
	cls := NewClassifier(cfg.Hidden, 4, 7)
	hidden := tensor.RandN(5, 1, 3, 6, cfg.Hidden)
	preds, err := cls.Predict(hidden)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 3 {
		t.Fatalf("preds %v", preds)
	}
	for _, p := range preds {
		if p < 0 || p >= 4 {
			t.Fatalf("class out of range: %d", p)
		}
	}
	// Deterministic.
	again, _ := cls.Predict(hidden)
	for i := range preds {
		if preds[i] != again[i] {
			t.Fatal("prediction not deterministic")
		}
	}
}

func TestClassifierShapeError(t *testing.T) {
	cls := NewClassifier(32, 2, 1)
	if _, err := cls.Logits(tensor.New(3, 16)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestDecoderGreedyDeterministic(t *testing.T) {
	cfg := tinyDecoder()
	dec, err := NewDecoder(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	memory := tensor.RandN(3, 0.5, 5, cfg.Hidden)
	a, err := dec.greedy(memory, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dec.greedy(memory, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Fatalf("greedy decode not deterministic: %v vs %v", a, b)
	}
	if len(a) == 0 || len(a) > 8 {
		t.Fatalf("token count %d", len(a))
	}
}

// TestGreedyConcurrentSafe: greedy allocates its own state per call, so
// goroutines sharing one decoder must each get the stream a solo call
// gives — and run race-clean under -race.
func TestGreedyConcurrentSafe(t *testing.T) {
	cfg := tinyDecoder()
	dec, err := NewDecoder(cfg, 91)
	if err != nil {
		t.Fatal(err)
	}
	mems := []*tensor.Tensor{
		tensor.RandN(1, 0.5, 4, cfg.Hidden),
		tensor.RandN(2, 0.5, 7, cfg.Hidden),
		tensor.RandN(3, 0.5, 5, cfg.Hidden),
	}
	want := make([][]int, len(mems))
	for i, mem := range mems {
		if want[i], err = dec.greedy(mem, 10); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 12)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := g % len(mems)
			got, err := dec.greedy(mems[i], 10)
			if err == nil && !slices.Equal(got, want[i]) {
				err = fmt.Errorf("memory %d: concurrent %v vs solo %v", i, got, want[i])
			}
			errs[g] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDecoderValidation(t *testing.T) {
	if _, err := NewDecoder(tiny(), 1); err == nil {
		t.Fatal("encoder config should be rejected")
	}
	dec, err := NewDecoder(tinyDecoder(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.greedy(tensor.New(4, 7), 4); err == nil {
		t.Fatal("bad memory shape should be rejected")
	}
	if _, err := dec.greedy(tensor.New(28), 4); err == nil {
		t.Fatal("rank-1 memory should be rejected")
	}
}

func TestScaled(t *testing.T) {
	s := Albert().Scaled(64, 4, 128, 2)
	if s.Hidden != 64 || s.Layers != 2 || !s.ShareLayers {
		t.Fatalf("scaled: %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// allConfigs returns the four evaluated models in the paper's order.
func allConfigs() []Config {
	return []Config{BertBase(), Albert(), DistilBert(), Seq2SeqDecoder()}
}

// Logits pools position 0 of each sequence in hidden [batch, seq, hidden]
// and returns class logits [batch, classes].
func (c *Classifier) Logits(hidden *tensor.Tensor) (*tensor.Tensor, error) {
	if hidden.Rank() != 3 || hidden.Dim(2) != c.Hidden {
		return nil, fmt.Errorf("model: classifier input shape %v, want [batch, seq, %d]",
			hidden.Shape(), c.Hidden)
	}
	batch, seq := hidden.Dim(0), hidden.Dim(1)
	cls := tensor.New(batch, c.Hidden)
	for b := 0; b < batch; b++ {
		copy(cls.Data()[b*c.Hidden:(b+1)*c.Hidden], hidden.Data()[b*seq*c.Hidden:b*seq*c.Hidden+c.Hidden])
	}
	return c.logitsFromCLS(cls)
}

// Predict returns the argmax class per request.
func (c *Classifier) Predict(hidden *tensor.Tensor) ([]int, error) {
	logits, err := c.Logits(hidden)
	if err != nil {
		return nil, err
	}
	return argmaxRows(logits, c.Classes), nil
}
