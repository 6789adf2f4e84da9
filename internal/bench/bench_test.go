package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/servingsim"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "table4", "fig16", "table5",
		"gen-serving", "var-length", "replica-routing",
		"prefix-cache", "fp16-path", "disagg-routing", "autoscale",
		"extra-allocstall", "extra-chunkablation", "extra-cluster",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s (paper order)", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Paper == "" || all[i].Run == nil {
			t.Fatalf("experiment %s incomplete", id)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig5"); !ok {
		t.Fatal("fig5 missing")
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("fig99 should not exist")
	}
}

// experimentOutputs holds each experiment's output for the life of the test
// binary: the golden test and the per-artefact tests below read the same
// run instead of paying for the serving simulations twice.
var experimentOutputs = map[string]string{}

// Run each experiment and sanity-check its output. The serving experiments
// are the slowest; they get their own tests below so -short can skip them.
func runExperiment(t *testing.T, id string) string {
	t.Helper()
	if out, ok := experimentOutputs[id]; ok {
		return out
	}
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	var buf bytes.Buffer
	if err := RunOne(&buf, e); err != nil {
		t.Fatalf("%s failed: %v", id, err)
	}
	out := buf.String()
	if len(out) < 100 {
		t.Fatalf("%s output suspiciously short:\n%s", id, out)
	}
	experimentOutputs[id] = out
	return out
}

func TestTable1(t *testing.T) {
	out := runExperiment(t, "table1")
	for _, name := range []string{"PyTorch", "onnxruntime", "TF-XLA", "FasterTransformers", "TensorRT", "Turbo"} {
		if !strings.Contains(out, name) {
			t.Fatalf("table1 missing runtime %s", name)
		}
	}
}

func TestTable2(t *testing.T) {
	out := runExperiment(t, "table2")
	if !strings.Contains(out, "(20,500)") {
		t.Fatal("table2 missing the (20,500) row")
	}
}

func TestFig5(t *testing.T) {
	out := runExperiment(t, "fig5")
	if !strings.Contains(out, "Softmax") || !strings.Contains(out, "LayerNorm") {
		t.Fatal("fig5 missing kernels")
	}
	if !strings.Contains(out, "no-ILP") || !strings.Contains(out, "two-pass") {
		t.Fatal("fig5 missing ablation columns")
	}
}

func TestFig6ChunkGrowth(t *testing.T) {
	out := runExperiment(t, "fig6")
	if !strings.Contains(out, "seq_len=200") || !strings.Contains(out, "seq_len=240") {
		t.Fatal("fig6 missing scenarios")
	}
	// The paper's qualitative claim: more chunks at 240 than at 200.
	if !strings.Contains(out, "qkv_out") || !strings.Contains(out, "intermediate_out") {
		t.Fatal("fig6 missing tensor rows")
	}
}

func TestFig7(t *testing.T)  { runExperiment(t, "fig7") }
func TestFig9(t *testing.T)  { runExperiment(t, "fig9") }
func TestFig10(t *testing.T) { runExperiment(t, "fig10") }
func TestFig11(t *testing.T) { runExperiment(t, "fig11") }
func TestFig12(t *testing.T) { runExperiment(t, "fig12") }
func TestFig13(t *testing.T) { runExperiment(t, "fig13") }
func TestFig14(t *testing.T) { runExperiment(t, "fig14") }

func TestFig8ShowsImprovement(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 warms a 500-token cost dictionary; skipped in -short mode")
	}
	out := runExperiment(t, "fig8")
	if !strings.Contains(out, "paper's example") || !strings.Contains(out, "stretched spread") {
		t.Fatal("fig8 missing scenarios")
	}
	// DP must never regress against the single batch (it contains that
	// partition in its search space).
	if strings.Contains(out, "DP vs single batch: -") {
		t.Fatal("fig8: DP regressed against single batch")
	}
	// The stretched spread must show a strictly positive improvement.
	idx := strings.Index(out, "stretched spread")
	if !strings.Contains(out[idx:], "DP vs single batch: +") ||
		strings.Contains(out[idx:], "DP vs single batch: +0%") {
		t.Fatalf("fig8: stretched spread should improve:\n%s", out[idx:])
	}
}

func TestServingExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("serving simulations are slow; skipped in -short mode")
	}
	out := runExperiment(t, "fig15")
	if !strings.Contains(out, "critical points") {
		t.Fatal("fig15 missing critical points")
	}
	runExperiment(t, "table4")
}

func TestServingExperimentsTC(t *testing.T) {
	if testing.Short() {
		t.Skip("serving simulations are slow; skipped in -short mode")
	}
	runExperiment(t, "fig16")
	runExperiment(t, "table5")
}

func TestGenServingExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("serving simulations are slow; skipped in -short mode")
	}
	out := runExperiment(t, "gen-serving")
	if !strings.Contains(out, "p99 speedup") || !strings.Contains(out, "cont req/s") {
		t.Fatal("gen-serving missing comparison columns")
	}
}

// TestGenServingContinuousWins is the tentpole acceptance criterion:
// continuous batching must beat static DP batching on the variable-length
// generation workload — better p99 at matched load, no less throughput.
func TestGenServingContinuousWins(t *testing.T) {
	if testing.Short() {
		t.Skip("serving simulations are slow; skipped in -short mode")
	}
	for _, rate := range []float64{8, 16} {
		st, ct := genServingComparison(rate)
		if ct.Served < st.Served {
			t.Fatalf("rate %.0f: continuous served %d < static %d", rate, ct.Served, st.Served)
		}
		if st.Saturated && !ct.Saturated {
			continue
		}
		if ct.LatencyP99 >= st.LatencyP99 {
			t.Fatalf("rate %.0f: continuous p99 %.4fs not better than static %.4fs",
				rate, ct.LatencyP99, st.LatencyP99)
		}
	}
}

func TestAllocStallReproducesMotivation(t *testing.T) {
	out := runExperiment(t, "extra-allocstall")
	if !strings.Contains(out, "Direct") || !strings.Contains(out, "idle fraction") {
		t.Fatal("allocstall missing rows")
	}
}

func TestChunkAblation(t *testing.T) {
	out := runExperiment(t, "extra-chunkablation")
	if !strings.Contains(out, "K_SCALE") {
		t.Fatal("ablation missing header")
	}
}

// genServingComparison runs static-DP vs continuous at one offered rate on
// the gen-serving experiment's setup.
func genServingComparison(rate float64) (staticRes, contRes servingsim.GenResult) {
	step, prefill, wl := genExperimentSetup()
	return runGenSystem(rate, false, wl, step, prefill), runGenSystem(rate, true, wl, step, prefill)
}
