package model

import (
	"fmt"
	"testing"
)

// stepBenchConfig is the decoder the live benchmark serves
// (cmd/turbo-ledger: Seq2SeqDecoder().Scaled(128,4,512,2)).
func stepBenchConfig() Config { return Seq2SeqDecoder().Scaled(128, 4, 512, 2) }

// openStepSessions opens n paged sessions over distinct prompts with a
// 16-row prompt memory and the decoder's full budget, and steps them a few
// times so the decode workspace, the gather lists and the pooled scratch
// have reached their steady-state sizes.
func openStepSessions(tb testing.TB, g *Generator, n int) []*GenSession {
	tb.Helper()
	live := make([]*GenSession, n)
	for i := range live {
		s, err := g.NewPagedSession(int64(i), []int{7000 + i}, testMemory(int64(40+i), 16, g.Cfg.Hidden), g.Cfg.MaxTargetLen)
		if err != nil {
			tb.Fatal(err)
		}
		live[i] = s
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

// BenchmarkGeneratorStep times one paged decode iteration by precision and
// batch size, with allocs/op (ROADMAP open item (a)). The context grows by
// one row per iteration, as it does in serving; when a session ends the
// batch is reopened off the clock.
func BenchmarkGeneratorStep(b *testing.B) {
	for _, fp16 := range []bool{false, true} {
		for _, batch := range []int{1, 4, 8} {
			name := fmt.Sprintf("fp32/b%d", batch)
			if fp16 {
				name = fmt.Sprintf("fp16/b%d", batch)
			}
			b.Run(name, func(b *testing.B) {
				g, _, _ := newPagedGenerator(b, stepBenchConfig(), 4096, 0)
				if fp16 {
					g.EnableFP16()
				}
				live := openStepSessions(b, g, batch)
				defer func() { closeAll(live) }()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if anyDone(live) {
						b.StopTimer()
						closeAll(live)
						live = openStepSessions(b, g, batch)
						b.StartTimer()
					}
					if _, err := g.Step(live); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestStepF16AllocsNoMoreThanStep: a steady-state fp16 decode iteration must
// not allocate more than the fp32 iteration over the same sessions — every
// conversion buffer of the binary16 route is planned or pooled.
func TestStepF16AllocsNoMoreThanStep(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	allocs := func(fp16 bool) float64 {
		g, _, _ := newPagedGenerator(t, stepBenchConfig(), 4096, 0)
		if fp16 {
			g.EnableFP16()
		}
		live := openStepSessions(t, g, 4)
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
		t.Fatalf("stepF16 allocates %.0f per iteration, Step %.0f", a16, a32)
	}
}
