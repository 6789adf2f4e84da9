package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	turbo "repro"
	"repro/internal/allocator"
	"repro/internal/blas"
	"repro/internal/cudasim"
	"repro/internal/kernels"
	"repro/internal/reduction"
	"repro/internal/serving"
)

// measureLayers is the traced pass. End-to-end metrics are never taken from
// it. It (1) replays the head of the paced schedule with the span recorder
// on for every other traceWindow, reading counts from /v1/stats at the same
// boundaries; (2) times solo requests through the idle handler; and (3)
// replays the head of the same request list layer by layer through the
// frozen probe surface (README), each child a separate call on the identical
// input.
func measureLayers(ctx context.Context, w workload, seed int64, seconds float64, sc scale, rec *recorder, res *runResult) error {
	wallStart, refStart := time.Now(), now()
	deadline := wallStart.Add(time.Duration(seconds * float64(time.Second))) // wall clock: what the run is given
	sys, err := buildSystem(w.Build, sc)
	if err != nil {
		return err
	}
	ph := phasesFor(seconds)
	tr := w.generate(seed, ph)
	res.SHA256 = tr.SHA256
	set := newMetricSet(perLayerDefs)

	// (1) Traced replay of the head of the paced schedule.
	runOpenLoop(ctx, sys, tr.Warm, nil)
	memBefore := deviceTraffic(sys)
	head := tr.Paced
	head.wall = time.Duration(replayShare * float64(head.wall))
	replay := runOpenLoop(ctx, sys, head, rec)
	memAfter := deviceTraffic(sys)
	reqs := head.reqs[:len(replay.replies)]

	// The traced pass checks every reply's form; the oracle belongs to the
	// end-to-end pass.
	checked, counts, problems := checkReplies(ctx, nil, nil, 0, replay.replies)
	outs := checked[0]
	res.count("traced", counts[0], problems)

	servingMetrics(set, replay, outs)
	set.set("serving.kv_blocks_shared_peak", float64(sys.rt.GenEngine.Generator.BlockPool().Stats().PeakShared), 0)
	routerMetrics(set, replay, tr.Warm.reqs, reqs)
	set.set("allocator.peak_device_mib", float64(sys.peakDeviceBytes())/(1<<20), 0)
	set.set("allocator.malloc_count", float64(memAfter.AllocCount-memBefore.AllocCount), 0)
	set.set("allocator.malloc_mib", float64(memAfter.AllocBytes-memBefore.AllocBytes)/(1<<20), 0)
	if v, ok := num(replay.after, "kv_bytes_per_token"); ok {
		set.set("model.kv_bytes_per_token", v, 0)
	} else {
		set.null("model.kv_bytes_per_token", "/v1/stats has no kv_bytes_per_token")
	}

	// (2) Solo requests through the idle handler.
	probeRT, err := newRuntime(w.Build)
	if err != nil {
		return fmt.Errorf("probe runtime: %w", err)
	}
	classify, generate := splitKinds(reqs, sc.ProbeReqs)
	soloOverhead(ctx, set, sys.handler, probeRT, classify, sc.SoloProbes)
	if err := sys.stop(); err != nil {
		return fmt.Errorf("stop: %w", err)
	}
	if err := routerOverhead(ctx, set, w.Build, classify, sc.SoloProbes); err != nil {
		return err
	}

	// (3) Layer replay, each side bounded by what is left of the run.
	classifyUntil := time.Now().Add(time.Until(deadline) / 2)
	if len(generate) == 0 {
		classifyUntil = deadline
	}
	if err := replayClassify(ctx, set, rec, probeRT, sys.cost, classify, classifyUntil); err != nil {
		return err
	}
	if err := replayGenerate(set, rec, probeRT, w.Build, generate, sc, deadline); err != nil {
		return err
	}

	res.Slowness = float64(time.Since(wallStart)) / float64(since(refStart))
	res.PerLayer = set.list()
	res.Warnings = append(res.Warnings, set.warnings...)
	// On one P the generator cannot launch while a compute goroutine holds the
	// P, so it runs late by up to one scheduler quantum (10 ms) or one batch;
	// beyond that it is not keeping its schedule.
	if late := set.got["harness.gen_late_p99_ms"]; late.Value > 25 {
		res.Warnings = append(res.Warnings, fmt.Sprintf("generator ran %.1f ms late at p99 (latencies start at the due time, so they include it)", late.Value))
	}
	return nil
}

// replayShare is the share of the paced phase the traced pass replays; the
// rest of its time goes to the solo probes and the layer replay.
const replayShare = 0.4

// deviceTraffic sums replica 0's allocator counters over both engines.
func deviceTraffic(sys *system) allocator.Snapshot {
	s, g := sys.rt.Engine.MemoryStats(), sys.rt.GenEngine.MemoryStats()
	s.AllocCount += g.AllocCount
	s.AllocBytes += g.AllocBytes
	return s
}

// splitKinds returns the first limit requests of each kind.
func splitKinds(reqs []request, limit int) (classify, generate []request) {
	for _, q := range reqs {
		if q.Kind == kindClassify && len(classify) < limit {
			classify = append(classify, q)
		}
		if q.Kind == kindGenerate && len(generate) < limit {
			generate = append(generate, q)
		}
	}
	return classify, generate
}

// ratio is a/b, or 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// servingMetrics derives the serving.* and harness.* metrics of the traced
// replay: counts from /v1/stats deltas at its boundaries, gauges
// from the 20 Hz samples, and latencies from the harness's own timestamps
// over every request of the replay, as the end-to-end pass takes them.
func servingMetrics(set *metricSet, p phaseResult, outs []outcome) {
	// deltaRatio sets name to Δa/Δb, or null when either key is gone.
	deltaRatio := func(name, a, b string) {
		da, ok1 := delta(p.before, p.after, a)
		db, ok2 := delta(p.before, p.after, b)
		if !ok1 || !ok2 {
			set.null(name, "/v1/stats has no "+a+" or "+b)
			return
		}
		set.set(name, ratio(da, db), int(db))
	}
	deltaCount := func(name, key string) {
		if d, ok := delta(p.before, p.after, key); ok {
			set.set(name, d, 0)
		} else {
			set.null(name, "/v1/stats has no "+key)
		}
	}
	deltaRatio("serving.batch_size_mean", "served", "batches_run")
	deltaRatio("serving.gen_batch_mean", "gen_tokens", "gen_steps")
	deltaRatio("serving.prefill_prompts_per_pass", "gen_prefill_prompts", "gen_prefill_passes")
	deltaCount("serving.replay_tokens", "prefix_replay_tokens")
	deltaCount("serving.preemptions", "gen_preemptions")
	deltaCount("serving.rejected", "jobs_rejected")
	deltaCount("serving.expired", "jobs_expired")
	deltaCount("serving.cancelled", "jobs_cancelled")

	hits, ok1 := delta(p.before, p.after, "prefix_hits")
	misses, ok2 := delta(p.before, p.after, "prefix_misses")
	if ok1 && ok2 {
		set.set("serving.prefix_hit_share", ratio(hits, hits+misses), int(hits+misses))
	} else {
		set.null("serving.prefix_hit_share", "/v1/stats has no prefix_hits or prefix_misses")
	}

	// Gauges over the 20 Hz samples.
	var inFlight []float64
	usedPeak, reservedAtPeak := 0.0, 0.0
	for _, g := range p.polls {
		inFlight = append(inFlight, float64(g.inFlight))
		if used := float64(g.kvUsed); used > usedPeak {
			usedPeak, reservedAtPeak = used, float64(g.kvReserved)
		}
	}
	set.set("serving.in_flight_mean", mean(inFlight), len(inFlight))
	set.set("allocator.kv_reserved_over_used", ratio(reservedAtPeak, usedPeak), len(p.polls))

	// The tails of the end-to-end medians, then the medians per kind.
	set.set("serving.lat_p95_ms", percentile(sortedMS(sinceDue(outs, lastByte)), 0.95), len(outs))
	set.set("serving.ttft_p95_ms", percentile(sortedMS(sinceDue(outs, firstByte)), 0.95), len(outs))
	var classifyLat, genTTFT []time.Duration
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		if o.rep.req.Kind == kindClassify {
			classifyLat = append(classifyLat, o.last.Sub(o.rep.due))
		} else {
			genTTFT = append(genTTFT, o.first.Sub(o.rep.due))
		}
	}
	p50 := func(ds []time.Duration) float64 {
		if len(ds) == 0 {
			return 0
		}
		return percentile(sortedMS(ds), 0.50)
	}
	set.set("serving.classify_lat_p50_ms", p50(classifyLat), len(classifyLat))
	set.set("serving.gen_ttft_p50_ms", p50(genTTFT), len(genTTFT))
	gaps := tokenGaps(outs)
	if len(gaps) > 0 {
		set.set("serving.tpot_p50_ms", percentile(gaps, 0.50), len(gaps))
		set.set("serving.tpot_p99_ms", percentile(gaps, 0.99), len(gaps))
	} else {
		set.set("serving.tpot_p50_ms", 0, 0)
		set.set("serving.tpot_p99_ms", 0, 0)
	}
	// Traced windows against the untraced windows between them; 0 when the
	// replay is too short to hold both.
	var traced, untraced []time.Duration
	for _, o := range outs {
		switch {
		case o.err != nil:
		case o.rep.traced:
			traced = append(traced, o.last.Sub(o.rep.due))
		default:
			untraced = append(untraced, o.last.Sub(o.rep.due))
		}
	}
	overhead := 0.0
	if len(traced) > 0 && len(untraced) > 0 {
		overhead = ratio(p50(traced), p50(untraced)) - 1
	}
	set.set("harness.trace_overhead_share", overhead, min(len(traced), len(untraced)))
	set.set("harness.slo_miss_share", sloMissShare(outs), len(outs))
	set.set("harness.gen_late_p99_ms", percentile(sortedMS(p.late), 0.99), len(p.late))
}

// routerMetrics derives router.* from the per_replica rows of /v1/stats. A
// single Server has no such rows: one replica, nothing to balance, so the
// metrics read 0.
func routerMetrics(set *metricSet, p phaseResult, warm, reqs []request) {
	rows := func(m map[string]any) []map[string]any {
		list, _ := m["per_replica"].([]any)
		out := make([]map[string]any, 0, len(list))
		for _, r := range list {
			if row, ok := r.(map[string]any); ok {
				out = append(out, row)
			}
		}
		return out
	}
	before, after := rows(p.before), rows(p.after)
	if len(after) < 2 || len(before) != len(after) {
		set.set("router.load_imbalance", 0, 0)
		set.set("router.prefix_affinity_share", 0, 0)
		return
	}

	routed := make([]float64, len(after))
	most, okRouted := 0.0, true
	for i := range after {
		d, ok := delta(before[i], after[i], "jobs_routed")
		routed[i], okRouted = d, okRouted && ok
		most = math.Max(most, d)
	}
	if okRouted {
		set.set("router.load_imbalance", ratio(most, mean(routed)), len(reqs))
	} else {
		set.null("router.load_imbalance", "per_replica rows have no jobs_routed")
	}

	// Affinity: of the generate requests whose question had been asked
	// before, the share a replica answered from its prefix cache.
	seen := map[int]bool{}
	for _, q := range warm {
		if q.Question >= 0 {
			seen[q.Question] = true
		}
	}
	repeats := 0
	for _, q := range reqs {
		if q.Question < 0 {
			continue
		}
		if seen[q.Question] {
			repeats++
		}
		seen[q.Question] = true
	}
	if hits, ok := delta(p.before, p.after, "prefix_hits"); ok {
		set.set("router.prefix_affinity_share", ratio(hits, float64(repeats)), repeats)
	} else {
		set.null("router.prefix_affinity_share", "/v1/stats has no prefix_hits")
	}
}

// soloTimes serves each request alone, one after the other, and returns the
// handler time of each.
func soloTimes(ctx context.Context, h http.Handler, reqs []request) []time.Duration {
	out := make([]time.Duration, len(reqs))
	for i := range reqs {
		rep := &reply{req: &reqs[i], due: now()}
		serve(ctx, h, rep)
		out[i] = since(rep.due)
	}
	return out
}

// soloOverhead sets serving.overhead_us: per request, a solo trip through
// the idle handler minus Engine.Classify on the same tokens; the median of
// the differences.
func soloOverhead(ctx context.Context, set *metricSet, h http.Handler, probeRT *turbo.Runtime, classify []request, n int) {
	if len(classify) == 0 {
		set.set("serving.overhead_us", 0, 0)
		return
	}
	if len(classify) > n {
		classify = classify[:n]
	}
	vocab := encoderConfig().Vocab
	diffs := make([]float64, len(classify))
	for i, q := range classify {
		toks := [][]int{serving.Tokenize(q.Text, vocab)}
		if i == 0 {
			// First use grows the probe engine's allocator chunks; keep it out.
			if _, err := probeRT.Classify(ctx, toks); err != nil {
				set.null("serving.overhead_us", err.Error())
				return
			}
		}
		start := now()
		if _, err := probeRT.Classify(ctx, toks); err != nil {
			set.null("serving.overhead_us", err.Error())
			return
		}
		engine := since(start)
		diffs[i] = us(soloTimes(ctx, h, classify[i:i+1])[0] - engine)
	}
	set.set("serving.overhead_us", median(diffs), len(diffs))
}

// routerOverhead sets router.overhead_us: the same solo requests through a
// one-replica Router against the bare Server it fronts, alternating.
func routerOverhead(ctx context.Context, set *metricSet, b buildSpec, classify []request, n int) error {
	if len(classify) == 0 {
		set.set("router.overhead_us", 0, 0)
		return nil
	}
	if len(classify) > n {
		classify = classify[:n]
	}
	b.Replicas = 1
	rt, err := newRuntime(b)
	if err != nil {
		return fmt.Errorf("router probe runtime: %w", err)
	}
	svc, err := rt.Serve()
	if err != nil {
		return fmt.Errorf("router probe serve: %w", err)
	}
	srv, ok := svc.(*turbo.Server)
	if !ok {
		svc.Close()
		set.null("router.overhead_us", "Serve no longer returns a bare *turbo.Server to front")
		return nil
	}
	router, err := turbo.NewRouter(turbo.RouterConfig{Policy: turbo.TokenCostRouting}, srv)
	if err != nil {
		svc.Close()
		return fmt.Errorf("router probe: %w", err)
	}
	defer router.Close() // owns srv
	bare, routed := srv.Handler(), router.Handler()
	soloTimes(ctx, bare, classify[:1]) // first use grows allocator chunks
	diffs := make([]float64, len(classify))
	for i := range classify {
		viaRouter := soloTimes(ctx, routed, classify[i:i+1])[0]
		diffs[i] = us(viaRouter - soloTimes(ctx, bare, classify[i:i+1])[0])
	}
	set.set("router.overhead_us", median(diffs), len(diffs))
	return nil
}

// lensOf returns the token count of each request.
func lensOf(reqs []request) []int {
	lens := make([]int, len(reqs))
	for i, q := range reqs {
		lens[i] = len(q.Text)
	}
	return lens
}

const replayWindow = 16 // requests the DP scheduler sees at once in the replay

// replayClassify walks the classify requests in windows: sched.schedule,
// then per DP-formed batch core.classify ⊃ {model.embed, model.encoder ⊃
// {allocator.plan, graph.exec ⊃ {blas.*, kernels.*}}, model.head}. Counts
// that must repeat exactly (bytes moved, the cudasim-modeled reductions) are
// taken over all requests at seed-determined batches of maxBatch, outside
// the time bound.
func replayClassify(ctx context.Context, set *metricSet, rec *recorder, rt *turbo.Runtime, cost turbo.CostModel, reqs []request, until time.Time) error {
	zero := []string{"sched.dp_schedule_us", "sched.dp_cost_ratio", "sched.dp_batches_per_window",
		"core.classify_us_per_tok", "core.classify_self_us", "model.embed_us", "model.encoder_us", "model.head_us",
		"allocator.plan_us", "allocator.footprint_mib", "graph.exec_us",
		"kernels.softmax_us", "kernels.layernorm_us", "kernels.bias_act_us", "kernels.bytes_moved_mib",
		"blas.gemm_us", "blas.gemm_gflops", "blas.grouped_gemm_us",
		"reduction.softmax_modeled_us", "reduction.layernorm_modeled_us"}
	if len(reqs) == 0 {
		for _, name := range zero {
			set.set(name, 0, 0)
		}
		return nil
	}
	cfg := encoderConfig()
	vocab := cfg.Vocab
	dp := turbo.NewDPScheduler(cost, maxBatch)
	naive := turbo.NewNaiveScheduler(cost, maxBatch)
	eng := rt.Engine
	shapes := newShapeProbe(cfg)

	var dpPredicted, naivePredicted time.Duration
	var schedTimes []float64
	var planTime time.Duration
	var footprint []float64
	windows, batches, tokens := 0, 0, 0
	var flops float64
	warmed := false

	for lo := 0; lo < len(reqs) && (windows == 0 || time.Now().Before(until)); lo += replayWindow {
		hi := lo + replayWindow
		if hi > len(reqs) {
			hi = len(reqs)
		}
		window := make([]*turbo.Request, hi-lo)
		for i, q := range reqs[lo:hi] {
			window[i] = &turbo.Request{ID: int64(lo + i), Length: len(q.Text), Payload: serving.Tokenize(q.Text, vocab)}
		}
		var plan []turbo.Batch
		_, d := rec.time("sched.schedule", 0, windows, func() { plan = dp.Schedule(window) })
		schedTimes = append(schedTimes, us(d))
		for _, b := range plan {
			dpPredicted += b.Predicted
		}
		for _, b := range naive.Schedule(window) {
			naivePredicted += b.Predicted
		}
		windows++

		for _, b := range plan {
			toks := make([][]int, len(b.Requests))
			for i, r := range b.Requests {
				toks[i] = r.Payload.([]int)
			}
			if !warmed {
				// First use grows allocator chunks and scratch; keep it out.
				if _, err := eng.Classify(ctx, toks); err != nil {
					return fmt.Errorf("layer replay: %w", err)
				}
				warmed = true
			}
			var err error
			root, _ := rec.time("core.classify", 0, batches, func() { _, err = eng.Classify(ctx, toks) })
			if err != nil {
				return fmt.Errorf("layer replay core.classify: %w", err)
			}
			hidden, err := eng.Embedding.EncodePacked(toks)
			if err != nil {
				return fmt.Errorf("layer replay model.embed: %w", err)
			}
			rec.time("model.embed", root, batches, func() { _, err = eng.Embedding.EncodePacked(toks) })
			if err != nil {
				return fmt.Errorf("layer replay model.embed: %w", err)
			}
			encStart := now()
			out, stats, err := eng.Encoder.ForwardPacked(hidden)
			encEnd := now()
			plan := refDuration(stats.PlanTime) // the encoder times its own planning, on the wall clock
			if err != nil {
				return fmt.Errorf("layer replay model.encoder: %w", err)
			}
			enc := rec.add("model.encoder", root, batches, encStart, encEnd)
			rec.add("allocator.plan", enc, batches, encStart, encStart.Add(plan))
			exec := rec.add("graph.exec", enc, batches, encStart.Add(plan), encEnd)
			planTime += plan
			footprint = append(footprint, float64(stats.FootprintBytes)/(1<<20))
			rec.time("model.head", root, batches, func() { _, err = eng.Classifier.PredictPacked(out) })
			if err != nil {
				return fmt.Errorf("layer replay model.head: %w", err)
			}

			lens := hidden.Lens()
			flops += shapes.run(rec, exec, batches, lens)
			tokens += hidden.TotalTokens()
			batches++
		}
	}

	total := func(name string) float64 { d, _ := rec.total(name); return us(d) }
	perBatch := func(name string) float64 { return total(name) / float64(batches) }
	set.set("sched.dp_schedule_us", median(schedTimes), windows)
	set.set("sched.dp_cost_ratio", ratio(float64(dpPredicted), float64(naivePredicted)), windows)
	set.set("sched.dp_batches_per_window", float64(batches)/float64(windows), windows)
	set.set("core.classify_us_per_tok", total("core.classify")/float64(tokens), tokens)
	set.set("core.classify_self_us", perBatch("core.classify")-perBatch("model.embed")-perBatch("model.encoder")-perBatch("model.head"), batches)
	set.set("model.embed_us", perBatch("model.embed"), batches)
	set.set("model.encoder_us", perBatch("model.encoder"), batches)
	set.set("model.head_us", perBatch("model.head"), batches)
	set.set("allocator.plan_us", us(planTime)/float64(batches), batches)
	set.set("allocator.footprint_mib", mean(footprint), batches)
	set.set("graph.exec_us", perBatch("graph.exec"), batches)
	set.set("kernels.softmax_us", perBatch("kernels.softmax"), batches)
	set.set("kernels.layernorm_us", perBatch("kernels.layernorm"), batches)
	set.set("kernels.bias_act_us", perBatch("kernels.bias_act"), batches)
	set.set("blas.gemm_us", perBatch("blas.gemm"), batches)
	set.set("blas.gemm_gflops", ratio(flops, total("blas.gemm")*1e3), batches)
	set.set("blas.grouped_gemm_us", perBatch("blas.grouped_gemm"), batches)

	// Exact counts over the whole list, at batches of maxBatch in list order.
	dev := cudasim.NewDevice(cudasim.RTX2060())
	var softmaxModeled, layerNormModeled, bytesMoved float64
	all := lensOf(reqs)
	for lo := 0; lo < len(all); lo += maxBatch {
		hi := lo + maxBatch
		if hi > len(all) {
			hi = len(all)
		}
		lens := all[lo:hi]
		softmaxModeled += float64(cfg.Layers) * reduction.TimeSoftmaxPacked(dev, reduction.SoftmaxTurbo, lens, cfg.Heads).Seconds * 1e6
		layerNormModeled += float64(2*cfg.Layers) * reduction.TimeLayerNormPacked(dev, reduction.LayerNormTurbo, lens, cfg.Hidden).Seconds * 1e6
		bytesMoved += shapes.bytesMoved(lens)
	}
	nb := float64((len(all) + maxBatch - 1) / maxBatch)
	set.set("reduction.softmax_modeled_us", softmaxModeled/nb, int(nb))
	set.set("reduction.layernorm_modeled_us", layerNormModeled/nb, int(nb))
	set.set("kernels.bytes_moved_mib", bytesMoved/nb/(1<<20), int(nb))
	return nil
}

// shapeProbe times the encoder's dense GEMMs, ragged attention GEMMs and
// fused reduction/element-wise kernels at one batch's shapes, on scratch
// buffers: the probes read shapes only, never the model's tensors.
type shapeProbe struct {
	cfg  turbo.Config
	w    []float32 // weights, bias, gamma and beta: any slice of it will do
	x, y []float32 // activations in and out, grown to the largest batch seen
}

func newShapeProbe(cfg turbo.Config) *shapeProbe {
	return &shapeProbe{cfg: cfg, w: ramp(3 * cfg.Hidden * cfg.Inter)}
}

// ramp fills n floats with small distinct values, so no kernel can shortcut
// an all-zero operand.
func ramp(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(i%97)/97 - 0.5
	}
	return s
}

// run times the probes for one batch as children of parent and returns the
// dense GEMM floating-point operation count.
func (p *shapeProbe) run(rec *recorder, parent, group int, lens []int) (flops float64) {
	h, inter, heads, layers := p.cfg.Hidden, p.cfg.Inter, p.cfg.Heads, p.cfg.Layers
	hd := h / heads
	rows, sumSq := 0, 0
	sqOffs := make([]int, len(lens)+1)
	for i, n := range lens {
		rows += n
		sumSq += n * n
		sqOffs[i+1] = sumSq
	}
	// x and y each hold the widest activation (FFN inner) or the score blocks.
	if need := max(rows*3*h, rows*inter, heads*sumSq); need > len(p.x) {
		p.x, p.y = ramp(need), ramp(need)
	}

	// The four dense encoder GEMMs at m = Σlen: QKV, attention output, FFN in, FFN out.
	dense := [][2]int{{3 * h, h}, {h, h}, {inter, h}, {h, inter}} // {n, k}
	rec.time("blas.gemm", parent, group, func() {
		for l := 0; l < layers; l++ {
			for _, nk := range dense {
				blas.Gemm(false, false, rows, nk[0], nk[1], 1, p.x, nk[1], p.w, nk[0], 0, p.y, nk[0])
			}
		}
	})
	for _, nk := range dense {
		flops += float64(layers) * 2 * float64(rows) * float64(nk[0]) * float64(nk[1])
	}

	// Ragged attention: per request one group of `heads` QKᵀ and PV problems
	// over [heads, len, headDim] blocks, scores in [heads, len, len].
	qk := make([]blas.StridedBatch, len(lens))
	pv := make([]blas.StridedBatch, len(lens))
	off := 0
	for i, n := range lens {
		q, k, v := p.x[off*h:], p.x[(rows+off)*h:], p.x[(2*rows+off)*h:]
		scores := p.y[heads*sqOffs[i]:]
		qk[i] = blas.StridedBatch{M: n, N: n, K: hd, A: q, Lda: hd, StrideA: n * hd, B: k, Ldb: hd, StrideB: n * hd,
			C: scores, Ldc: n, StrideC: n * n, Count: heads}
		pv[i] = blas.StridedBatch{M: n, N: hd, K: n, A: scores, Lda: n, StrideA: n * n, B: v, Ldb: hd, StrideB: n * hd,
			C: q, Ldc: hd, StrideC: n * hd, Count: heads}
		off += n
	}
	rec.time("blas.grouped_gemm", parent, group, func() {
		for l := 0; l < layers; l++ {
			blas.GroupedStridedBatchedGemm(false, true, 1, 0, qk)
			blas.GroupedStridedBatchedGemm(false, false, 1, 0, pv)
		}
	})

	scale := float32(1 / math.Sqrt(float64(hd)))
	rec.time("kernels.softmax", parent, group, func() {
		for l := 0; l < layers; l++ {
			kernels.PackedScaledSoftmax(p.y[:heads*sumSq], lens, sqOffs, heads, scale)
		}
	})
	rec.time("kernels.layernorm", parent, group, func() {
		for l := 0; l < 2*layers; l++ { // after attention and after the FFN
			kernels.AddBiasLayerNorm(p.y[:rows*h], p.x[:rows*h], p.w[:h], p.w[h:2*h], p.w[2*h:3*h], rows, h, 1e-5)
		}
	})
	rec.time("kernels.bias_act", parent, group, func() {
		for l := 0; l < layers; l++ {
			kernels.AddBiasAct(p.cfg.Act, p.y[:rows*inter], p.w[:inter], rows, inter)
		}
	})
	return flops
}

// bytesMoved computes, from tensor sizes alone, the activation bytes the
// three probed kernels read and write for one batch across all layers.
func (p *shapeProbe) bytesMoved(lens []int) float64 {
	rows, sumSq := 0, 0
	for _, n := range lens {
		rows += n
		sumSq += n * n
	}
	const f32 = 4
	softmax := 2 * p.cfg.Heads * sumSq * f32       // read + write the score blocks
	layerNorm := 2 * 3 * rows * p.cfg.Hidden * f32 // two per layer: read x and residual, write x
	biasAct := 2 * rows * p.cfg.Inter * f32        // read + write the FFN activations
	return float64(p.cfg.Layers * (softmax + layerNorm + biasAct))
}

// replayGenerate times the generation side through GenEngine alone:
// core.prefill (StartSessions, groups of four prompts), core.step at decode
// batch 1, 4 and 8, then the continuous scheduler, block pool and decode
// GEMM shapes on their own.
func replayGenerate(set *metricSet, rec *recorder, rt *turbo.Runtime, b buildSpec, reqs []request, sc scale, until time.Time) error {
	zero := []string{"core.prefill_us_per_tok", "core.step_us_per_tok.b1", "core.step_us_per_tok.b4", "core.step_us_per_tok.b8",
		"sched.cont_cycle_us", "allocator.blockpool_cycle_ns", "blas.gemv_us", "blas.gemm_f16_us", "blas.encode_half_ns_per_elem"}
	if len(reqs) == 0 {
		for _, name := range zero {
			set.set(name, 0, 0)
		}
		return nil
	}
	gen := rt.GenEngine
	vocab := encoderConfig().Vocab
	reps := sc.ProbeReps

	// group opens sessions for reqs[at:at+n] and steps them together while
	// all are live, so the decode batch stays n.
	group := 0
	var prefill time.Duration
	prefillTokens := 0
	stepTimes := map[int][]float64{}
	runGroup := func(at, n int) error {
		ids := make([]int64, n)
		prompts := make([][]int, n)
		for i := range prompts {
			ids[i] = int64(at + i + 1)
			prompts[i] = serving.Tokenize(reqs[(at+i)%len(reqs)].Text, vocab)
		}
		start := now()
		sessions, err := gen.StartSessions(ids, prompts, []int{sc.StepCap})
		end := now()
		if err != nil {
			return fmt.Errorf("layer replay core.prefill: %w", err)
		}
		defer func() {
			for _, s := range sessions {
				s.Close() // not retired: the probe never fills the prefix cache
			}
		}()
		root := rec.add("core.prefill", 0, group, start, end)
		if n == 4 {
			prefill += end.Sub(start)
			for _, p := range prompts {
				prefillTokens += len(p)
			}
		}
		live := func() bool {
			for _, s := range sessions {
				if s.Done() {
					return false
				}
			}
			return true
		}
		for live() {
			_, d := rec.time("core.step", root, group, func() { _, err = gen.Step(sessions) })
			if err != nil {
				return fmt.Errorf("layer replay core.step: %w", err)
			}
			stepTimes[n] = append(stepTimes[n], us(d)/float64(n))
		}
		group++
		return nil
	}
	// One untimed group first: the decode scratch grows on first use.
	if err := runGroup(0, maxBatch); err != nil {
		return err
	}
	stepTimes = map[int][]float64{}
	prefill, prefillTokens = 0, 0
	for at, round := 0, 0; round == 0 || time.Now().Before(until); round++ {
		for _, n := range []int{1, 4, 8} {
			if err := runGroup(at, n); err != nil {
				return err
			}
			at += n
		}
		if at+13 > sc.ProbeReqs {
			break
		}
	}
	set.set("core.prefill_us_per_tok", us(prefill)/float64(prefillTokens), prefillTokens)
	for _, n := range []int{1, 4, 8} {
		set.set(fmt.Sprintf("core.step_us_per_tok.b%d", n), median(stepTimes[n]), len(stepTimes[n]))
	}

	// Continuous scheduler: enqueue, admit, evict per request.
	cs := turbo.NewContinuousScheduler(maxBatch, 0)
	const cycles = 2000
	start := now()
	for i := 0; i < cycles; i++ {
		q := reqs[i%len(reqs)]
		cs.Enqueue(&turbo.GenRequest{ID: int64(i), PromptLen: len(q.Text), MaxNew: q.MaxNew})
		for _, r := range cs.Admit() {
			cs.Evict(r.ID)
		}
	}
	set.set("sched.cont_cycle_us", us(since(start))/cycles, cycles)
	set.set("allocator.blockpool_cycle_ns", blockPoolCycle(), poolCycles)

	// Decode GEMM shapes: one step's dense projections at batch 1, 4 and 8.
	dec := decoderConfig()
	h, inter := dec.Hidden, dec.Inter
	shapes := [][2]int{{h, h}, {h, h}, {h, h}, {h, h}, {h, h}, {h, h}, {inter, h}, {h, inter}, // self q,k,v,o; cross q,o; FFN in, out
		{dec.Vocab, h}} // vocabulary projection, once per step
	wide := max(inter, dec.Vocab)
	a, wgt, c := ramp(maxBatch*wide), ramp(h*wide), make([]float32, maxBatch*wide)
	// decodeGemms is the time of one step's GEMMs at each of the three batch sizes.
	decodeGemms := func(gemm func(m, n, k int)) float64 {
		start := now()
		for r := 0; r < reps; r++ {
			for _, m := range []int{1, 4, 8} {
				for i, nk := range shapes {
					times := dec.Layers
					if i == len(shapes)-1 {
						times = 1
					}
					for l := 0; l < times; l++ {
						gemm(m, nk[0], nk[1])
					}
				}
			}
		}
		return us(since(start)) / float64(reps)
	}
	set.set("blas.gemv_us", decodeGemms(func(m, n, k int) {
		blas.Gemm(false, false, m, n, k, 1, a, k, wgt, n, 0, c, n)
	}), reps)
	if !b.FP16 {
		set.set("blas.gemm_f16_us", 0, 0)
		set.set("blas.encode_half_ns_per_elem", 0, 0)
		return nil
	}
	ah, wh := blas.EncodeHalf(a), blas.EncodeHalf(wgt)
	set.set("blas.gemm_f16_us", decodeGemms(func(m, n, k int) {
		blas.GemmF16(false, false, m, n, k, 1, ah, k, wh, n, 0, c, n)
	}), reps)
	start = now()
	const encodes = 200
	for i := 0; i < encodes; i++ {
		blas.EncodeHalf(wgt)
	}
	set.set("blas.encode_half_ns_per_elem", float64(since(start))/float64(encodes*len(wgt)), encodes*len(wgt))
	return nil
}

const poolCycles = 20000

// blockPoolCycle times BlockPool Alloc → Retain → Release → Release, the
// copy-on-write sharing cycle of one KV block, in ns per cycle.
func blockPoolCycle() float64 {
	dec := decoderConfig()
	pool := allocator.NewBlockPool(allocator.NewDevice(), 16*int64(dec.Hidden)*4, 64)
	defer pool.Close()
	start := now()
	for i := 0; i < poolCycles; i++ {
		b := pool.Alloc()
		pool.Retain(b)
		pool.Release(b)
		pool.Release(b)
	}
	return float64(since(start)) / poolCycles
}
