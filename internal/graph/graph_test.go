package graph

import (
	"strings"
	"testing"

	"repro/internal/allocator"
	"repro/internal/kernels"
)

func testConfig() LayerConfig {
	// Small but structurally faithful: multiple heads, inter = 4×hidden.
	return LayerConfig{Hidden: 32, Heads: 4, Inter: 128, Act: kernels.ActGELU}
}

func bertBaseConfig() LayerConfig {
	return LayerConfig{Hidden: 768, Heads: 12, Inter: 3072, Act: kernels.ActGELU}
}

func TestBuildersValidate(t *testing.T) {
	for _, g := range []*Graph{
		NewEncoderLayerUnfused(testConfig()),
		NewEncoderLayerFused(testConfig()),
		NewEncoderLayerFusedChains(testConfig()),
	} {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
	}
}

// builderOps is each builder's op count and, in topological order, its
// literal op sequence: Fig. 3a, Fig. 3b, and Fig. 3b with the attention
// core's four launches collapsed to two.
var builderOps = []struct {
	build func(LayerConfig) *Graph
	n     int
	ops   []string
}{
	{NewEncoderLayerUnfused, 24, []string{
		"gemm", "add_bias", "transpose_for_score",
		"gemm", "add_bias", "transpose_for_score",
		"gemm", "add_bias", "transpose_for_score",
		"batched_gemm_qk", "softmax", "batched_gemm_pv", "transpose_back",
		"gemm", "add_bias", "residual_add", "layernorm",
		"gemm", "add_bias", "activation",
		"gemm", "add_bias", "residual_add", "layernorm",
	}},
	{NewEncoderLayerFused, 12, []string{
		"fused_gemm012", "split_add_bias_transpose",
		"batched_gemm_qk", "softmax", "batched_gemm_pv", "transpose_back",
		"gemm", "add_bias_layernorm",
		"gemm", "add_bias_act",
		"gemm", "add_bias_layernorm",
	}},
	{NewEncoderLayerFusedChains, 10, []string{
		"fused_gemm012", "split_add_bias_transpose",
		"qk_scaled_softmax", "pv_transpose_back",
		"gemm", "add_bias_layernorm",
		"gemm", "add_bias_act",
		"gemm", "add_bias_layernorm",
	}},
}

// checkBuilderOps checks row i of builderOps.
func checkBuilderOps(t *testing.T, i int) {
	t.Helper()
	tc := builderOps[i]
	g := tc.build(testConfig())
	if g.NumOps() != tc.n {
		t.Errorf("%s has %d ops, want %d", g.Name, g.NumOps(), tc.n)
	}
	if got, want := g.signature(), strings.Join(tc.ops, "→"); got != want {
		t.Errorf("%s op sequence:\n got  %s\n want %s", g.Name, got, want)
	}
}

func TestUnfusedOpCount(t *testing.T)     { checkBuilderOps(t, 0) }
func TestFusedOpCount(t *testing.T)       { checkBuilderOps(t, 1) }
func TestFusedChainsOpCount(t *testing.T) { checkBuilderOps(t, 2) }

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := NewEncoderLayerUnfused(testConfig())
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for p, op := range order {
		pos[op] = p
	}
	for _, op := range g.Ops {
		for _, in := range op.Inputs {
			prod := g.Producer(in)
			if prod == nil {
				continue
			}
			if pos[prod.ID] >= pos[op.ID] {
				t.Fatalf("producer %s not before consumer %s", prod.Name, op.Name)
			}
		}
	}
}

func TestCycleDetected(t *testing.T) {
	g := &Graph{Name: "cyclic"}
	a := g.AddTensor("a", TensorIntermediate, DimExpr{Const: 1})
	b := g.AddTensor("b", TensorIntermediate, DimExpr{Const: 1})
	g.AddOp(OpAddBias, "x", []int{a}, []int{b}, nil, Attr{})
	g.AddOp(OpAddBias, "y", []int{b}, []int{a}, nil, Attr{})
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestDimExprEval(t *testing.T) {
	d := DimExpr{Const: 5, BS: 2, BSS: 3}
	if d.Eval(2, 10) != 5+2*20+3*200 {
		t.Fatalf("Eval = %d", d.Eval(2, 10))
	}
}

func TestUsageRecordsLifetimes(t *testing.T) {
	g := NewEncoderLayerFused(bertBaseConfig())
	records := g.UsageRecords(1, 200)
	byName := map[string]allocator.UsageRecord{}
	for _, r := range records {
		if r.FirstOp > r.LastOp {
			t.Fatalf("%s: first %d > last %d", r.Name, r.FirstOp, r.LastOp)
		}
		byName[r.Name] = r
	}
	// Fig. 6 sizes at seq 200: qkv_out = 200·2304·4 = 1,843,200 bytes;
	// intermediate_out = 200·3072·4 = 2,457,600.
	if got := byName["qkv_out"].Size; got != 1843200 {
		t.Fatalf("qkv_out size = %d, want 1843200", got)
	}
	if got := byName["intermediate_out"].Size; got != 2457600 {
		t.Fatalf("intermediate_out size = %d, want 2457600", got)
	}
	// qkv_out dies at the split (op 1); intermediate tensors later reuse it.
	if byName["qkv_out"].LastOp != 1 {
		t.Fatalf("qkv_out last op = %d, want 1", byName["qkv_out"].LastOp)
	}
	// The output must live to the end.
	last := byName["layer_out"].LastOp
	if last != g.NumOps()-1 {
		t.Fatalf("layer_out last op = %d, want %d", last, g.NumOps()-1)
	}
	// qkv_out and q overlap (split reads qkv while writing q).
	q, qkv := byName["q"], byName["qkv_out"]
	if q.FirstOp > qkv.LastOp {
		t.Fatal("q should overlap qkv_out at the split op")
	}
}

func TestUsageRecordsScaleWithSeq(t *testing.T) {
	g := NewEncoderLayerFused(bertBaseConfig())
	r200 := g.UsageRecords(1, 200)
	r240 := g.UsageRecords(1, 240)
	if len(r200) != len(r240) {
		t.Fatal("record count should not depend on seq")
	}
	for i := range r200 {
		if r240[i].Size <= r200[i].Size {
			t.Fatalf("%s: size must grow with seq (%d vs %d)", r200[i].Name, r200[i].Size, r240[i].Size)
		}
	}
}

func TestSignatureStable(t *testing.T) {
	a := NewEncoderLayerFused(testConfig()).signature()
	b := NewEncoderLayerFused(testConfig()).signature()
	if a != b {
		t.Fatal("signature not deterministic")
	}
	if !strings.HasPrefix(a, "fused_gemm012→split_add_bias_transpose→batched_gemm_qk→softmax") {
		t.Fatalf("unexpected fused signature: %s", a)
	}
}

func TestOpKindStringsAndIsGemm(t *testing.T) {
	if !OpGemm.IsGemm() || !OpBatchedGemmQK.IsGemm() || !OpFusedGemmQKV.IsGemm() || !OpBatchedGemmPV.IsGemm() {
		t.Fatal("gemm kinds misclassified")
	}
	if OpSoftmax.IsGemm() || OpAddBias.IsGemm() {
		t.Fatal("non-gemm kinds misclassified")
	}
	if OpSoftmax.String() != "softmax" {
		t.Fatal("op name")
	}
}

func TestValidateCatchesBadWeightRef(t *testing.T) {
	g := &Graph{Name: "bad"}
	a := g.AddTensor("a", TensorInput, DimExpr{Const: 4})
	b := g.AddTensor("b", TensorOutput, DimExpr{Const: 4})
	g.Input, g.Output = a, b
	g.AddOp(OpAddBias, "op", []int{a}, []int{b}, []int{a}, Attr{}) // weight ref to non-weight
	if err := g.Validate(); err == nil {
		t.Fatal("expected weight-ref error")
	}
}

func TestHeadDimPanicsOnIndivisible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LayerConfig{Hidden: 10, Heads: 3}.HeadDim()
}

// signature renders the op sequence as a canonical string for structural
// comparison in tests (each builder emits exactly its Fig. 3 op sequence).
func (g *Graph) signature() string {
	order, err := g.TopoOrder()
	if err != nil {
		return "invalid:" + err.Error()
	}
	s := ""
	for _, i := range order {
		if s != "" {
			s += "→"
		}
		s += g.Ops[i].Kind.String()
	}
	return s
}
