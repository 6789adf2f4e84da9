package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/sched"
	"repro/internal/servingsim"
)

func init() {
	register(Experiment{
		ID:    "gen-serving",
		Title: "Generation serving: static DP batching vs continuous (iteration-level) batching",
		Paper: "beyond the paper: its DP scheduler is request-level; continuous batching admits/evicts between decode steps (Orca/LightSeq lineage) and wins on tail latency and saturation throughput",
		Run:   runGenServing,
	})
}

// genWorkload is the variable-length generation workload: prompt and
// generation lengths both vary 8×, so static batches carry heavy padding
// and long stragglers.
type genWorkload struct {
	promptLo, promptHi int
	newLo, newHi       int
	maxBatch           int
}

var defaultGenWorkload = genWorkload{promptLo: 8, promptHi: 64, newLo: 8, newHi: 64, maxBatch: 8}

// genCosts builds the decode-iteration and prefill cost models from the
// GPU latency estimator, mirroring DecoderLatency's per-step pricing but
// over a ragged batch: row-batched projections plus per-row attention over
// each row's own context.
func genCosts(decCfg, encCfg model.Config) (servingsim.GenStepCost, func(int) time.Duration) {
	p := perf.Turbo()
	h, heads, hd, inter := decCfg.Hidden, decCfg.Heads, decCfg.HeadDim(), decCfg.Inter

	step := func(ctxs []int) time.Duration {
		rows := len(ctxs)
		if rows == 0 {
			return 0
		}
		// Per-row attention: self- and cross-attention each scan the row's
		// context width.
		var attn time.Duration
		for _, c := range ctxs {
			one := rtx2060.GemmTime(p, heads, 1, c, hd) +
				rtx2060.SoftmaxTime(p, heads, c) +
				rtx2060.GemmTime(p, heads, 1, hd, c)
			attn += 2 * one
		}
		perLayer := rtx2060.GemmTime(p, 1, rows, 3*h, h) + // fused QKV
			3*rtx2060.GemmTime(p, 1, rows, h, h) + // self out, cross Q, cross out
			rtx2060.GemmTime(p, 1, rows, inter, h) +
			rtx2060.GemmTime(p, 1, rows, h, inter) +
			attn +
			3*rtx2060.LayerNormTime(p, rows, h)
		return time.Duration(decCfg.Layers)*perLayer +
			rtx2060.GemmTime(p, 1, rows, decCfg.Vocab, h)
	}
	prefillCost := func(promptLen int) time.Duration {
		return rtx2060.BatchCost(p, encCfg, promptLen, 1)
	}
	return step, prefillCost
}

func runGenSystem(rate float64, continuous bool, wl genWorkload, step servingsim.GenStepCost, prefill func(int) time.Duration) servingsim.GenResult {
	cfg := servingsim.GenConfig{
		Rate:        rate,
		Warmup:      2,
		Duration:    10,
		Seed:        1234,
		PromptLo:    wl.promptLo,
		PromptHi:    wl.promptHi,
		NewLo:       wl.newLo,
		NewHi:       wl.newHi,
		MaxBatch:    wl.maxBatch,
		Continuous:  continuous,
		StepCost:    step,
		PrefillCost: prefill,
	}
	if !continuous {
		// The static baseline is the paper's best scheduler (Algorithm 2)
		// applied at request level over total (prompt+generation) length.
		cost := sched.CostFunc(func(l, b int) time.Duration {
			ctxs := make([]int, b)
			for i := range ctxs {
				ctxs[i] = l
			}
			// Approximate a batch's decode by its final-step cost times the
			// mean generation length — enough signal for the DP to group
			// similar totals.
			return step(ctxs) * time.Duration((wl.newLo+wl.newHi)/2)
		})
		cfg.Scheduler = &sched.DPScheduler{Cost: cost, MaxBatch: wl.maxBatch}
	}
	return servingsim.RunGeneration(cfg)
}

// genExperimentSetup builds the shared configuration of the experiment
// and its acceptance test: Table 3's Seq2Seq decoder fed by a BERT-shaped
// encoder resized to match, priced by the GPU estimator.
func genExperimentSetup() (servingsim.GenStepCost, func(int) time.Duration, genWorkload) {
	decCfg := model.Seq2SeqDecoder()
	encCfg := model.BertBase()
	encCfg.Hidden, encCfg.Heads, encCfg.Inter = decCfg.Hidden, decCfg.Heads, decCfg.Inter
	step, prefill := genCosts(decCfg, encCfg)
	return step, prefill, defaultGenWorkload
}

func runGenServing(w io.Writer) error {
	step, prefill, wl := genExperimentSetup()

	fmt.Fprintf(w, "workload: prompts %d–%d tokens, generations %d–%d tokens, max batch %d, Seq2Seq decoder (Table 3)\n",
		wl.promptLo, wl.promptHi, wl.newLo, wl.newHi, wl.maxBatch)
	fmt.Fprintln(w, "static = DP (Alg. 2) request-level batches, padded, retired as a whole; continuous = admit/evict between decode iterations")

	t := newTable(w)
	t.row("req/s", "static req/s", "static p99 ms", "cont req/s", "cont p99 ms", "p99 speedup")
	fmtRes := func(r servingsim.GenResult) (string, string) {
		if r.Saturated {
			return fmt.Sprintf("%.1f", r.ServedPerSec), "+inf"
		}
		return fmt.Sprintf("%.1f", r.ServedPerSec), ms(r.LatencyP99)
	}
	for _, rate := range []float64{2, 4, 8, 12, 16, 24, 32} {
		st := runGenSystem(rate, false, wl, step, prefill)
		ct := runGenSystem(rate, true, wl, step, prefill)
		s1, s2 := fmtRes(st)
		c1, c2 := fmtRes(ct)
		speedup := "—"
		if !st.Saturated && !ct.Saturated && ct.LatencyP99 > 0 {
			speedup = fmt.Sprintf("%.2fx", st.LatencyP99/ct.LatencyP99)
		} else if st.Saturated && !ct.Saturated {
			speedup = "static saturated"
		}
		t.row(rate, s1, s2, c1, c2, speedup)
	}
	t.flush()
	fmt.Fprintln(w, "cells: served throughput and p99 latency; +inf = offered load beyond that system's critical point")
	return nil
}
