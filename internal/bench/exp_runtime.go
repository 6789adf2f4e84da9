package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/perf"
)

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Batching gain for BERT serving (normalized per-request latency)",
		Paper: "short sequences gain most (→~0.2 at seq 10); seq 200 stays near 0.85–1.0",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Variable-length request latency across runtimes",
		Paper: "Bert: Turbo 0.97–2.44× vs PyTorch (avg 1.25×), ≈1.01× vs onnxrt; Turbo-TC lowest; Decoder 1.14–1.20× vs PyTorch",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Time distribution of BERT kernels (seq 20 vs 400)",
		Paper: "GEMMs 70.31%% at seq 20 and 82.80%% at 400; softmax 1.85%%/4.57%%; layernorm 2.71%%/3.64%%",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig14",
		Title: "Fixed-length BERT inference speedups vs five runtimes",
		Paper: "vs PyTorch 1.23–2.77 (avg 1.54); onnxrt avg 1.11; XLA avg 1.11; FT avg 0.91; TRT avg 0.87",
		Run:   runFig14,
	})
}

func runFig7(w io.Writer) error {
	cfg := model.BertBase()
	p := perf.Turbo()
	t := newTable(w)
	header := []interface{}{"batch"}
	seqs := []int{10, 20, 30, 50, 100, 200}
	for _, s := range seqs {
		header = append(header, fmt.Sprintf("seq=%d", s))
	}
	t.row(header...)
	for b := 1; b <= 15; b++ {
		row := []interface{}{b}
		for _, s := range seqs {
			row = append(row, fmt.Sprintf("%.3f", rtx2060.BatchingNormalizedLatency(p, cfg, s, b)))
		}
		t.row(row...)
	}
	t.flush()
	return nil
}

// fig9Lengths reproduces the benchmark methodology: uniformly random
// lengths with a fixed seed, displayed in increasing order "for the sake of
// clearness" (§6.2.1).
func fig9Lengths(lo, hi, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	lens := make([]int, n)
	for i := range lens {
		lens[i] = lo + rng.Intn(hi-lo+1)
	}
	sort.Ints(lens)
	return lens
}

func runFig9(w io.Writer) error {
	profiles := perf.VariableLengthProfiles()

	for _, cfg := range []model.Config{model.BertBase(), model.Albert(), model.DistilBert()} {
		fmt.Fprintf(w, "%s latency (ms) on variable-length requests:\n", cfg.Name)
		t := newTable(w)
		header := []interface{}{"seq"}
		for _, p := range profiles {
			header = append(header, p.Name)
		}
		t.row(header...)
		lens := fig9Lengths(5, 500, 24, 7)
		var speedupsVsPy []float64
		for _, seq := range lens {
			row := []interface{}{seq}
			var turbo, py float64
			for _, p := range profiles {
				d := rtx2060.EncoderLatency(p, cfg, 1, seq)
				row = append(row, ms(d.Seconds()))
				switch p.Name {
				case "Turbo":
					turbo = d.Seconds()
				case "PyTorch":
					py = d.Seconds()
				}
			}
			speedupsVsPy = append(speedupsVsPy, py/turbo)
			t.row(row...)
		}
		t.flush()
		mn, mx, avg := summarize(speedupsVsPy)
		fmt.Fprintf(w, "Turbo speedup vs PyTorch: %.2fx–%.2fx, avg %.2fx\n\n", mn, mx, avg)
	}

	fmt.Fprintln(w, "Seq2Seq Decoder latency (ms) on variable-length source sentences:")
	dec := model.Seq2SeqDecoder()
	t := newTable(w)
	t.row("src_len", "Turbo", "PyTorch", "Turbo-TC")
	var decSpeedups []float64
	for _, src := range fig9Lengths(28, 137, 12, 8) {
		turbo := rtx2060.DecoderLatency(perf.Turbo(), dec, src)
		py := rtx2060.DecoderLatency(perf.PyTorch(), dec, src)
		tc := rtx2060.DecoderLatency(perf.TurboTC(), dec, src)
		decSpeedups = append(decSpeedups, float64(py)/float64(turbo))
		t.row(src, ms(turbo.Seconds()), ms(py.Seconds()), ms(tc.Seconds()))
	}
	t.flush()
	mn, mx, avg := summarize(decSpeedups)
	fmt.Fprintf(w, "Decoder speedup vs PyTorch: %.2fx–%.2fx, avg %.2fx\n", mn, mx, avg)
	return nil
}

func summarize(xs []float64) (mn, mx, avg float64) {
	if len(xs) == 0 {
		return
	}
	mn, mx = xs[0], xs[0]
	for _, x := range xs {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
		avg += x
	}
	avg /= float64(len(xs))
	return
}

func runFig10(w io.Writer) error {
	cfg := model.BertBase()
	p := perf.Turbo()
	for _, seq := range []int{20, 400} {
		breakdown := rtx2060.EncoderLayerBreakdown(p, cfg, 1, seq)
		var total float64
		for _, ot := range breakdown {
			total += float64(ot.Time)
		}
		type share struct {
			name string
			pct  float64
			gemm bool
		}
		shares := make([]share, 0, len(breakdown))
		var gemmPct float64
		for _, ot := range breakdown {
			s := share{name: ot.Name, pct: 100 * float64(ot.Time) / total, gemm: ot.Kind.IsGemm()}
			if s.gemm {
				gemmPct += s.pct
			}
			shares = append(shares, s)
		}
		sort.Slice(shares, func(i, j int) bool { return shares[i].pct > shares[j].pct })
		fmt.Fprintf(w, "seqlen=%d kernel time distribution (GEMM total %.2f%%):\n", seq, gemmPct)
		t := newTable(w)
		t.row("kernel", "share", "class")
		for _, s := range shares {
			class := "non-GEMM"
			if s.gemm {
				class = "GEMM"
			}
			t.row(s.name, fmt.Sprintf("%.2f%%", s.pct), class)
		}
		t.flush()
	}
	return nil
}

func runFig14(w io.Writer) error {
	cfg := model.BertBase()
	turbo := perf.Turbo()
	others := []perf.Profile{
		perf.PyTorch(), perf.ONNXRuntime(), perf.TFXLA(),
		perf.FasterTransformer(), perf.TensorRT(), perf.TurboTC(),
	}
	t := newTable(w)
	header := []interface{}{"(batch,seq)"}
	for _, p := range others {
		header = append(header, p.Name)
	}
	t.row(header...)
	sums := make([]float64, len(others))
	count := 0
	for _, batch := range []int{1, 20} {
		for _, seq := range fig5Seqs {
			base := float64(rtx2060.EncoderLatency(turbo, cfg, batch, seq))
			row := []interface{}{fmt.Sprintf("(%d,%d)", batch, seq)}
			for i, p := range others {
				sp := float64(rtx2060.EncoderLatency(p, cfg, batch, seq)) / base
				sums[i] += sp
				row = append(row, fmt.Sprintf("%.2fx", sp))
			}
			count++
			t.row(row...)
		}
	}
	t.flush()
	fmt.Fprint(w, "average speedup of Turbo: ")
	for i, p := range others {
		fmt.Fprintf(w, "%s %.2fx  ", p.Name, sums[i]/float64(count))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "(values < 1.0 mean the other runtime is faster, as the paper reports for FT/TRT;")
	fmt.Fprintln(w, " the Turbo-TC column shows the Tensor-Core upside as an additional reference)")

	// Ops-level note: fusion is why the per-layer kernel count halves.
	unfused := graph.NewEncoderLayerUnfused(cfg.LayerConfig()).NumOps()
	fused := graph.NewEncoderLayerFused(cfg.LayerConfig()).NumOps()
	fmt.Fprintf(w, "kernel launches per layer: unfused %d → fused %d\n", unfused, fused)
	return nil
}
