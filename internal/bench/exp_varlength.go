package bench

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/allocator"
	"repro/internal/cudasim"
	"repro/internal/model"
	"repro/internal/reduction"
	"repro/internal/tensor"
)

func init() {
	register(Experiment{
		ID:    "var-length",
		Title: "Padded vs packed (zero-padding) encoder execution on variable-length batches",
		Paper: "Turbo runs ragged batches without padding; padded engines burn FLOPs on zeros (§5, Table 1 variable-length column)",
		Live:  true, // times the real padded and packed encoders
		Run:   runVarLength,
	})
}

// varLengthParams sizes the experiment; the smoke test runs a tiny variant
// so CI exercises the wiring without paying the full measurement.
type varLengthParams struct {
	hidden, heads, inter, layers int
	batch, maxLen                int
	reps                         int
}

func defaultVarLengthParams() varLengthParams {
	return varLengthParams{hidden: 96, heads: 4, inter: 384, layers: 2, batch: 16, maxLen: 96, reps: 2}
}

// lengthDist draws per-request lengths for one named distribution.
type lengthDist struct {
	name string
	draw func(rng *rand.Rand, maxLen int) int
}

func varLengthDists() []lengthDist {
	return []lengthDist{
		{"uniform", func(rng *rand.Rand, maxLen int) int {
			return 1 + rng.Intn(maxLen)
		}},
		// The paper's serving shape: mostly short requests, a tail of long
		// ones — the distribution where padding hurts most.
		{"short-skewed", func(rng *rand.Rand, maxLen int) int {
			if rng.Float64() < 0.8 {
				return 4 + rng.Intn(13) // 4..16
			}
			return 2*maxLen/3 + rng.Intn(maxLen/3) // long tail up to maxLen
		}},
		{"bimodal", func(rng *rand.Rand, maxLen int) int {
			if rng.Intn(2) == 0 {
				return 8
			}
			return maxLen
		}},
	}
}

func runVarLength(w io.Writer) error {
	return runVarLengthWith(w, defaultVarLengthParams())
}

func runVarLengthWith(w io.Writer, p varLengthParams) error {
	cfg := model.BertBase().Scaled(p.hidden, p.heads, p.inter, p.layers)
	emb := model.NewEmbedding(cfg, 21)
	enc, err := model.NewEncoder(cfg, 21, allocator.NewTurbo(allocator.NewDevice()), true)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "encoder %s (hidden %d, %d layers), batch %d, maxLen %d, CPU wall time (best of %d):\n",
		cfg.Name, cfg.Hidden, cfg.Layers, p.batch, p.maxLen, p.reps)
	t := newTable(w)
	t.row("distribution", "tokens", "padded-rows", "waste", "padded-ms", "packed-ms", "speedup", "oracle")

	dev := cudasim.NewDevice(cudasim.TeslaV100())
	type simRow struct {
		name              string
		softPad, softPk   int64
		layerPad, layerPk int64
	}
	var simRows []simRow
	var shortSkewSpeedup float64

	for di, dist := range varLengthDists() {
		rng := rand.New(rand.NewSource(int64(100 + di)))
		batchTokens := make([][]int, p.batch)
		lens := make([]int, p.batch)
		for i := range batchTokens {
			n := dist.draw(rng, p.maxLen)
			lens[i] = n
			toks := make([]int, n)
			for j := range toks {
				toks[j] = 3 + rng.Intn(cfg.Vocab-3)
			}
			batchTokens[i] = toks
		}

		runPadded := func() (*tensor.Tensor, []int, error) {
			hidden, seqLens, err := emb.Encode(batchTokens)
			if err != nil {
				return nil, nil, err
			}
			out, _, err := enc.Forward(hidden, seqLens)
			return out, seqLens, err
		}
		runPacked := func() (*tensor.Packed, error) {
			hidden, err := emb.EncodePacked(batchTokens)
			if err != nil {
				return nil, err
			}
			out, _, err := enc.ForwardPacked(hidden)
			return out, err
		}

		// Warm both paths once (plan caches, allocator chunks), keeping the
		// outputs for the oracle check.
		paddedOut, seqLens, err := runPadded()
		if err != nil {
			return err
		}
		packedOut, err := runPacked()
		if err != nil {
			return err
		}
		oracle := "bit-identical"
		if d := packedOut.Data().MaxAbsDiff(tensor.PackPadded(paddedOut, seqLens).Data()); d != 0 {
			oracle = fmt.Sprintf("DIVERGED maxdiff=%g", d)
		}

		best := func(run func() error) (float64, error) {
			bestS := 0.0
			for r := 0; r < p.reps; r++ {
				start := liveNow()
				if err := run(); err != nil {
					return 0, err
				}
				if s := liveSince(start).Seconds(); r == 0 || s < bestS {
					bestS = s
				}
			}
			return bestS, nil
		}
		paddedS, err := best(func() error { _, _, err := runPadded(); return err })
		if err != nil {
			return err
		}
		packedS, err := best(func() error { _, err := runPacked(); return err })
		if err != nil {
			return err
		}

		speedup := paddedS / packedS
		if dist.name == "short-skewed" {
			shortSkewSpeedup = speedup
		}
		maxLen := packedOut.MaxLen()
		t.row(dist.name,
			packedOut.TotalTokens(),
			p.batch*maxLen,
			pct(packedOut.PaddingWaste()),
			ms(paddedS), ms(packedS),
			fmt.Sprintf("%.2fx", speedup),
			oracle)

		// Simulated V100 batch-reduction kernels for the same batch: the
		// packed softmax launches per-request [heads, len, len] blocks;
		// layernorm just sees fewer rows.
		simRows = append(simRows, simRow{
			name:     dist.name,
			softPad:  reduction.TimeSoftmax(dev, reduction.SoftmaxTurbo, p.batch*cfg.Heads*maxLen, maxLen).Cycles,
			softPk:   reduction.TimeSoftmaxPacked(dev, reduction.SoftmaxTurbo, lens, cfg.Heads).Cycles,
			layerPad: reduction.TimeLayerNorm(dev, reduction.LayerNormTurbo, p.batch*maxLen, cfg.Hidden).Cycles,
			layerPk:  reduction.TimeLayerNormPacked(dev, reduction.LayerNormTurbo, lens, cfg.Hidden).Cycles,
		})
	}
	t.flush()

	fmt.Fprintln(w, "\nsimulated Tesla V100 reduction kernels, padded vs packed (cycles):")
	t = newTable(w)
	t.row("distribution", "softmax", "softmax-packed", "gain", "layernorm", "layernorm-packed", "gain")
	for _, r := range simRows {
		t.row(r.name, r.softPad, r.softPk, speedup(r.softPad, r.softPk),
			r.layerPad, r.layerPk, speedup(r.layerPad, r.layerPk))
	}
	t.flush()

	fmt.Fprintf(w, "\nshort-skewed speedup %.2fx measured (target ≥1.50x)\n", shortSkewSpeedup)
	return nil
}
