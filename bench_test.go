// Benchmarks regenerating every table and figure of the paper's evaluation
// (one testing.B per artefact, dispatching into internal/bench), plus
// micro-benchmarks of the core subsystems. Run:
//
//	go test -bench=. -benchmem
package turbo_test

import (
	"io"
	"testing"
	"time"

	turbo "repro"
)

// benchExperiment times one full regeneration of a paper artefact.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := turbo.RunExperiment(id, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per table/figure (paper order) ---------------------------

func BenchmarkTable1RuntimeComparison(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkTable2ReductionShares(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkFig5KernelSpeedups(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkFig6AllocationExample(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig7BatchingGain(b *testing.B)         { benchExperiment(b, "fig7") }
func BenchmarkFig8SchedulerExample(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9VariableLenLatency(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10KernelBreakdown(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig11Footprint(b *testing.B)           { benchExperiment(b, "fig11") }
func BenchmarkFig12AllocTraffic(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13PlanningOverhead(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14FixedLenSpeedups(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig15ServingThroughput(b *testing.B)   { benchExperiment(b, "fig15") }
func BenchmarkTable4ServingLatency(b *testing.B)     { benchExperiment(b, "table4") }
func BenchmarkFig16ServingThroughputTC(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkTable5ServingLatencyTC(b *testing.B)   { benchExperiment(b, "table5") }

// BenchmarkVarLengthPackedEncoder regenerates the padded-vs-packed
// variable-length comparison (the zero-padding execution path).
func BenchmarkVarLengthPackedEncoder(b *testing.B) { benchExperiment(b, "var-length") }

// Extras the paper describes in prose (§4.2 motivation, §4.2 alternatives,
// §5 multi-server balancing).
func BenchmarkExtraAllocStall(b *testing.B)    { benchExperiment(b, "extra-allocstall") }
func BenchmarkExtraChunkAblation(b *testing.B) { benchExperiment(b, "extra-chunkablation") }
func BenchmarkExtraCluster(b *testing.B)       { benchExperiment(b, "extra-cluster") }

// --- core-subsystem micro-benchmarks ----------------------------------------

// BenchmarkEngineForwardVariableLen measures the functional CPU runtime on
// a variable-length request (the quickstart path).
func BenchmarkEngineForwardVariableLen(b *testing.B) {
	cfg := turbo.BertBase().Scaled(64, 4, 256, 2)
	rt, err := turbo.NewRuntime(cfg, turbo.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	engine := rt.Engine
	toks := make([]int, 48)
	for i := range toks {
		toks[i] = 3 + i%200
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := engine.Encode([][]int{toks}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatencyModelBertBase measures the analytic model's evaluation
// cost (the scheduler warm-up hot path).
func BenchmarkLatencyModelBertBase(b *testing.B) {
	est := turbo.NewRTX2060Estimator()
	p := turbo.TurboProfile()
	cfg := turbo.BertBase()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.EncoderLatency(p, cfg, 1, 100+(i%8)*50)
	}
}

// BenchmarkDPSchedule measures Algorithm 2 on a 64-request queue.
func BenchmarkDPSchedule(b *testing.B) {
	cost := turbo.CostFunc(func(l, bs int) time.Duration {
		return time.Duration(100+l*bs) * time.Microsecond
	})
	s := turbo.NewDPScheduler(cost, 20)
	reqs := make([]*turbo.Request, 64)
	for i := range reqs {
		reqs[i] = &turbo.Request{ID: int64(i), Length: 2 + (i*37)%499}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(reqs)
	}
}

// BenchmarkWarmupCostLookup measures cached_cost dictionary lookups with
// interpolation (the per-dispatch hot path).
func BenchmarkWarmupCostLookup(b *testing.B) {
	cc := turbo.WarmupCost(func(l, bs int) time.Duration {
		return time.Duration(l*bs) * time.Microsecond
	}, 500, 20, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.BatchCost(turbo.Shape{Size: 1 + (i % 20), MaxLen: 2 + (i % 499)})
	}
}
