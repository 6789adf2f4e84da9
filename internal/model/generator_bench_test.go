package model

import (
	"fmt"
	"testing"
)

// stepBenchConfig is the decoder the live benchmark serves
// (cmd/turbo-ledger: Seq2SeqDecoder().Scaled(128,4,512,2)).
func stepBenchConfig() Config { return Seq2SeqDecoder().Scaled(128, 4, 512, 2) }

// stepBenchGenerator builds the generator of one benchmark cell.
func stepBenchGenerator(tb testing.TB, fp16 bool) *Generator {
	tb.Helper()
	g, _, _ := newTestGenerator(tb, stepBenchConfig(), 4096, 0)
	if fp16 {
		g.EnableFP16()
	}
	return g
}

// openStepSessions opens n sessions over distinct prompts with a mem-row
// prompt memory and a budget of maxNew tokens, and steps them a few times so the decode
// workspace, the gather lists and the conversion scratch have reached their
// steady-state sizes.
func openStepSessions(tb testing.TB, g *Generator, n, mem, maxNew int) []*GenSession {
	tb.Helper()
	live := make([]*GenSession, n)
	for i := range live {
		live[i] = openScheduleSession(tb, g, i, mem, maxNew, 40)
	}
	for warm := 0; warm < 4 && !anyDone(live); warm++ {
		if _, err := g.Step(live); err != nil {
			tb.Fatal(err)
		}
	}
	return live
}

func anyDone(live []*GenSession) bool {
	for _, s := range live {
		if s.Done() {
			return true
		}
	}
	return false
}

func closeAll(live []*GenSession) {
	for _, s := range live {
		s.Close()
	}
}

// BenchmarkGeneratorStep times one decode iteration by shape, precision and
// batch size, with allocs/op. The context grows by one row per iteration, as
// it does in serving; when a session ends the batch is reopened off the
// clock.
//
// Two shapes, because they price different things. full/ runs a 16-row
// prompt memory to the decoder's full 500-token budget: the mean
// self-attention context is 250 rows, so on fp16 the decode of the binary16
// self-KV dominates and the cross memory is invisible. ledger/ is the mix
// behind the live benchmark's core.step_us_per_tok — a 40-row prompt memory,
// a 24-token budget: the weights are most of what a step reads (2 MiB of
// fp32, 1 MiB of binary16 on fp16, against ≈ 80 KiB of decoded cross K/V),
// and the fp16 ÷ fp32 ratio there is what generate-fp16 pays against
// generate-unshared.
func BenchmarkGeneratorStep(b *testing.B) {
	cell := func(fp16 bool, batch, mem, maxNew int) func(b *testing.B) {
		return func(b *testing.B) {
			g := stepBenchGenerator(b, fp16)
			live := openStepSessions(b, g, batch, mem, maxNew)
			defer func() { closeAll(live) }()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if anyDone(live) {
					b.StopTimer()
					closeAll(live)
					live = openStepSessions(b, g, batch, mem, maxNew)
					b.StartTimer()
				}
				if _, err := g.Step(live); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, prec := range []string{"fp32", "fp16"} {
		for _, batch := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("full/%s/b%d", prec, batch),
				cell(prec == "fp16", batch, 16, stepBenchConfig().MaxTargetLen))
		}
	}
	for _, prec := range []string{"fp32", "fp16"} {
		for _, batch := range []int{1, 8} {
			b.Run(fmt.Sprintf("ledger/%s/b%d", prec, batch), cell(prec == "fp16", batch, 40, 24))
		}
	}
}

// stepAllocs is what one steady-state decode iteration (batch 4,
// either precision) allocates — measured by the loop below, which
// testing.AllocsPerRun runs at GOMAXPROCS=1, so the count does not depend on
// the machine. It was 69 until blas stopped allocating on one worker (a
// closure per Gemm, an index table per grouped call), 24 until the FFN's
// bias and activation became one kernel call per layer and 22 until that call
// stopped building a closure for the rows it runs inline; none of the 20 left
// is in blas, the binary16 conversions or the cross memory's decoded view.
const stepAllocs = 20

// TestStepF16AllocsNoMoreThanStep: a steady-state fp16 decode iteration must
// not allocate more than the fp32 iteration over the same sessions — every
// conversion buffer of the binary16 route is planned or workspace-owned —
// and neither may allocate more than stepAllocs.
func TestStepF16AllocsNoMoreThanStep(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	allocs := func(fp16 bool) float64 {
		g := stepBenchGenerator(t, fp16)
		live := openStepSessions(t, g, 4, 16, g.Cfg.MaxTargetLen)
		defer closeAll(live)
		return testing.AllocsPerRun(12, func() {
			if anyDone(live) {
				return
			}
			if _, err := g.Step(live); err != nil {
				t.Fatal(err)
			}
		})
	}
	a32, a16 := allocs(false), allocs(true)
	t.Logf("allocs per decode iteration: fp32 %.0f, fp16 %.0f", a32, a16)
	if a16 > a32 {
		t.Fatalf("fp16 Step allocates %.0f per iteration, fp32 %.0f", a16, a32)
	}
	if a32 > stepAllocs {
		t.Fatalf("Step allocates %.0f per iteration, pinned at %d", a32, stepAllocs)
	}
}
