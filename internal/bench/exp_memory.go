package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/allocator"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/perf"
)

// fig11Lengths is the request stream shown on Fig. 11/12's x-axis.
var fig11Lengths = []int{
	437, 202, 393, 460, 220, 25, 137, 499, 266, 253, 212, 475, 406, 429, 160,
	500, 249, 188, 303, 461, 469, 116, 263, 76, 149, 76, 391, 53, 321, 414,
	133, 470, 277, 366, 419, 313, 466, 80, 163, 55, 378, 42, 465, 440, 355,
	174, 246, 291, 56, 186, 227, 166, 317, 332, 472, 109, 499, 287, 249, 231,
	448, 271, 138, 36, 417, 475, 285, 473, 12, 52, 373, 435, 209, 368, 427,
}

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "Variable-length-aware allocation example (seq 200 → 240)",
		Paper: "2 chunks at seq 200, 3 chunks at seq 240; tensors with disjoint lifetimes share offsets",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Footprint of BERT intermediate tensors across a variable-length stream",
		Paper: "PyTorch/onnxrt climb to a sticky peak (~60–80 MB); Turbo ≈ GSOC ≈ 12 MB",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Device memory allocated+freed per inference",
		Paper: "GSOC reallocs the arena every inference; Turbo only on working-set change; caches spike early then go quiet",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "fig13",
		Title: "Offset-scheduling (Algorithm 1) overhead vs inference latency",
		Paper: "0.07–5.77%%, average 1.8%%",
		Live:  true, // times the real Algorithm 1 planner
		Run:   runFig13,
	})
}

// bertLayerRecords returns the BERT-base encoder-layer usage records at the
// given sequence length (batch 1), the exact input of Algorithm 1.
func bertLayerRecords(seq int) []allocator.UsageRecord {
	g := graph.NewEncoderLayerFused(model.BertBase().LayerConfig())
	return g.UsageRecords(1, seq)
}

func runFig6(w io.Writer) error {
	dev := allocator.NewDevice()
	turbo := allocator.NewTurbo(dev)
	for _, seq := range []int{200, 240} {
		records := bertLayerRecords(seq)
		plan := turbo.Plan(records)
		if err := allocator.Validate(plan, records); err != nil {
			return err
		}
		fmt.Fprintf(w, "seq_len=%d: %d chunks %v (footprint %.2f MB)\n",
			seq, len(plan.Chunks), turbo.ChunkSizes(), float64(plan.FootprintBytes())/1e6)
		t := newTable(w)
		t.row("tensor", "bytes", "first_op", "last_op", "chunk", "offset")
		sorted := append([]allocator.UsageRecord(nil), records...)
		sort.Slice(sorted, func(i, j int) bool {
			a, b := plan.Assignments[sorted[i].TensorID], plan.Assignments[sorted[j].TensorID]
			if a.Chunk != b.Chunk {
				return a.Chunk < b.Chunk
			}
			return a.Offset < b.Offset
		})
		for _, r := range sorted {
			a := plan.Assignments[r.TensorID]
			t.row(r.Name, r.Size, r.FirstOp, r.LastOp, a.Chunk, a.Offset)
		}
		t.flush()
	}
	return nil
}

// allocStream replays the Fig. 11 stream through an allocator, returning
// per-inference footprints and traffic.
func allocStream(a allocator.Allocator, dev *allocator.Device) (foot []float64, traffic []float64, err error) {
	prev := dev.Snapshot()
	for _, seq := range fig11Lengths {
		records := bertLayerRecords(seq)
		plan := a.Plan(records)
		if e := allocator.Validate(plan, records); e != nil {
			return nil, nil, e
		}
		snap := dev.Snapshot()
		foot = append(foot, float64(snap.LiveBytes)/1e6)
		delta := snap.Sub(prev)
		traffic = append(traffic, float64(delta.AllocBytes+delta.FreeBytes)/1e6)
		prev = snap
	}
	return foot, traffic, nil
}

func memoryAllocators() []func() (allocator.Allocator, *allocator.Device) {
	return []func() (allocator.Allocator, *allocator.Device){
		func() (allocator.Allocator, *allocator.Device) {
			d := allocator.NewDevice()
			return allocator.NewCaching(d), d
		},
		func() (allocator.Allocator, *allocator.Device) {
			d := allocator.NewDevice()
			return allocator.NewNaiveArena(d), d
		},
		func() (allocator.Allocator, *allocator.Device) {
			d := allocator.NewDevice()
			return allocator.NewTurbo(d), d
		},
		func() (allocator.Allocator, *allocator.Device) {
			d := allocator.NewDevice()
			return allocator.NewGSOC(d), d
		},
	}
}

func runFig11(w io.Writer) error {
	t := newTable(w)
	t.row("inference#", "seq", "PyTorch MB", "onnxrt MB", "Turbo MB", "GSOC MB")
	series := make([][]float64, 4)
	names := make([]string, 4)
	for i, mk := range memoryAllocators() {
		a, dev := mk()
		foot, _, err := allocStream(a, dev)
		if err != nil {
			return err
		}
		series[i] = foot
		names[i] = a.Name()
	}
	for i, seq := range fig11Lengths {
		t.row(i, seq,
			fmt.Sprintf("%.2f", series[0][i]), fmt.Sprintf("%.2f", series[1][i]),
			fmt.Sprintf("%.2f", series[2][i]), fmt.Sprintf("%.2f", series[3][i]))
	}
	t.flush()
	for i, name := range names {
		peak := 0.0
		for _, v := range series[i] {
			if v > peak {
				peak = v
			}
		}
		fmt.Fprintf(w, "peak %s: %.2f MB\n", name, peak)
	}
	return nil
}

func runFig12(w io.Writer) error {
	t := newTable(w)
	t.row("inference#", "seq", "PyTorch MB", "onnxrt MB", "Turbo MB", "GSOC MB")
	series := make([][]float64, 4)
	var names [4]string
	for i, mk := range memoryAllocators() {
		a, dev := mk()
		_, traffic, err := allocStream(a, dev)
		if err != nil {
			return err
		}
		series[i] = traffic
		names[i] = a.Name()
	}
	for i, seq := range fig11Lengths {
		t.row(i, seq,
			fmt.Sprintf("%.2f", series[0][i]), fmt.Sprintf("%.2f", series[1][i]),
			fmt.Sprintf("%.2f", series[2][i]), fmt.Sprintf("%.2f", series[3][i]))
	}
	t.flush()
	for i, name := range names {
		var total float64
		for _, v := range series[i] {
			total += v
		}
		fmt.Fprintf(w, "mean alloc+free per inference %s: %.2f MB\n", name, total/float64(len(fig11Lengths)))
	}
	return nil
}

func runFig13(w io.Writer) error {
	turbo := allocator.NewTurbo(allocator.NewDevice())
	profile := perf.Turbo()
	cfg := model.BertBase()

	rng := rand.New(rand.NewSource(99))
	t := newTable(w)
	t.row("seq", "plan µs", "inference ms", "overhead %")
	var sum, worst float64
	best := 100.0
	const samples = 40
	for i := 0; i < samples; i++ {
		seq := 5 + rng.Intn(496)
		records := bertLayerRecords(seq)

		start := liveNow()
		plan := turbo.Plan(records)
		planTime := liveSince(start)
		_ = plan

		// One plan serves all 12 layers (the repeated-structure trick), so
		// the overhead denominator is the full-model latency.
		inference := rtx2060.EncoderLatency(profile, cfg, 1, seq)
		overhead := 100 * float64(planTime) / float64(inference)
		sum += overhead
		if overhead > worst {
			worst = overhead
		}
		if overhead < best {
			best = overhead
		}
		t.row(seq, planTime.Microseconds(), ms(inference.Seconds()), fmt.Sprintf("%.2f", overhead))
	}
	t.flush()
	fmt.Fprintf(w, "overhead avg %.2f%% (min %.2f%%, max %.2f%%) over %d samples\n",
		sum/samples, best, worst, samples)
	return nil
}
