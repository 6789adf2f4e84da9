package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestBenchSmoke runs the Live experiments on tiny geometries, so their
// harnesses cannot rot between full runs and -short still drives them end
// to end. It asserts only what is exact — wiring, bit-identity, accounting —
// never a timing. (The modeled experiments need no tiny arm: the golden test
// runs them whole.)
func TestBenchSmoke(t *testing.T) {
	t.Run("var-length", func(t *testing.T) {
		var buf bytes.Buffer
		tiny := varLengthParams{hidden: 16, heads: 2, inter: 32, layers: 1, batch: 4, maxLen: 12, reps: 1}
		if err := runVarLengthWith(&buf, tiny); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, want := range []string{"uniform", "short-skewed", "bimodal", "waste", "speedup", "bit-identical"} {
			if !strings.Contains(out, want) {
				t.Fatalf("output missing %q:\n%s", want, out)
			}
		}
		if strings.Contains(out, "DIVERGED") {
			t.Fatalf("packed path diverged from the padded oracle:\n%s", out)
		}
	})

	// A tiny run exercises the probe, both fixed-question servers, the replay
	// identity checks and the reserved-vs-used snapshot (the hit and sharing
	// counts are asserted by the full-size test — a tiny geometry's streams
	// may be too short to share blocks).
	t.Run("prefix-cache", func(t *testing.T) {
		var buf bytes.Buffer
		tiny := prefixCacheParams{
			hidden: 16, heads: 2, inter: 32, layers: 1,
			candidates: 6, questions: 3, rounds: 3,
			maxNew: 6, contNew: 10,
			maxBatch: 4, workers: 4,
			gapN: 4, gapMaxNew: 12,
			seed: 5,
		}
		if err := runPrefixCacheWith(&buf, tiny); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, want := range []string{"fixed-question", "speedup", "prefix-hits", "reserved-vs-used", "overcommit"} {
			if !strings.Contains(out, want) {
				t.Fatalf("output missing %q:\n%s", want, out)
			}
		}
		if strings.Contains(out, "DIVERGED") {
			t.Fatalf("paged path diverged from the greedy oracle:\n%s", out)
		}
	})
}

// TestVarLengthExperiment runs the full-size artefact (skipped in -short,
// where TestBenchSmoke covers the wiring) and asserts what is deterministic
// in it: the packed path is bit-identical to the padded oracle on every
// distribution, and each seeded batch wastes exactly the padding it did when
// the experiment was sized. The ≥1.5× line is printed, not judged.
func TestVarLengthExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestBenchSmoke covers the wiring")
	}
	out := runExperiment(t, "var-length")
	if strings.Contains(out, "DIVERGED") || strings.Count(out, "bit-identical") != 3 {
		t.Fatalf("packed path diverged from the padded oracle:\n%s", out)
	}
	for _, waste := range []string{"45.65%", "70.29%", "45.83%"} {
		if !strings.Contains(out, waste) {
			t.Fatalf("padding waste %s missing:\n%s", waste, out)
		}
	}
}

// TestPrefixCacheExperiment runs the full-size paged-KV artefact (skipped in
// -short, where TestBenchSmoke covers the wiring) and asserts its exact
// verdicts: prefix hits, replayed tokens and shared blocks all > 0 with
// every stream bit-identical to the greedy oracle and none failed, and the
// reserved-vs-used overcommit ratio shrinking under paged block accounting.
// The ≥1.5× makespan line is printed, not judged.
func TestPrefixCacheExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestBenchSmoke covers the wiring")
	}
	out := runExperiment(t, "prefix-cache")
	if strings.Contains(out, "DIVERGED") || strings.Contains(out, "FAIL") {
		t.Fatalf("prefix-cache verdict failed:\n%s", out)
	}
	if strings.Count(out, "→ PASS") != 2 {
		t.Fatalf("prefix-cache must print its sharing and overcommit verdicts:\n%s", out)
	}
}

// modeledVerdicts runs a modeled experiment whose output carries its own
// acceptance gates and requires every one of them green.
func modeledVerdicts(t *testing.T, id string, passes int, wants ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: serving simulations are slow")
	}
	out := runExperiment(t, id)
	if strings.Contains(out, "FAIL") || strings.Count(out, "→ PASS") != passes {
		t.Fatalf("%s: want %d verdicts, all PASS:\n%s", id, passes, out)
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Fatalf("%s output missing %q:\n%s", id, want, out)
		}
	}
}

// TestReplicaRoutingExperiment: on the virtual clock, token-cost routing
// does not lose to round-robin on p99 under short-skewed traffic.
func TestReplicaRoutingExperiment(t *testing.T) {
	modeledVerdicts(t, "replica-routing", 1, "sim shape", "round-robin", "least-queue", "token-cost")
}

// TestDisaggRoutingExperiment: on the virtual clock (which models
// per-replica serial compute) roles [prefill, decode] beat all-mixed on the
// short-classify p99 while two-phase generations load the fleet.
func TestDisaggRoutingExperiment(t *testing.T) {
	modeledVerdicts(t, "disagg-routing", 1, "sim shape", "all-mixed", "prefill+decode")
}

// TestFP16PathExperiment: modeled GEMM speedup ≥2× at batch ≥4, KV
// bytes/token exactly halved with block capacity doubled, fused launch
// chains firing on both the packed encoder and the grouped decode, and fp16
// outputs within the documented tolerance of fp32 (but not bit-equal).
func TestFP16PathExperiment(t *testing.T) {
	modeledVerdicts(t, "fp16-path", 5, "gemm speedup", "KV bytes/token", "paged-KV capacity", "fused launch", "tolerance")
}

// TestAutoscaleExperiment: exact job accounting across every fleet (zero
// lost through scale-downs), real scale-ups AND scale-downs inside bounds,
// the autoscaler Pareto-beating every fixed fleet its average bill could buy
// on miss-rate and p99, and a strictly smaller replica-seconds bill than the
// peak-pinned fleet.
func TestAutoscaleExperiment(t *testing.T) {
	modeledVerdicts(t, "autoscale", 4, "accounting", "elasticity", "headline", "economy")
}
