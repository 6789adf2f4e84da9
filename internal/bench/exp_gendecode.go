package bench

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/model"
)

func init() {
	register(Experiment{
		ID:    "gen-decode",
		Title: "Ragged decode: per-token step wall-clock vs batch size, grouped kernels vs per-row oracle",
		Paper: "beyond the paper: its decoder is request-level beam search; grouped single-query attention over ragged per-session contexts is what lets continuous-batching decode throughput scale with batch size (LightSeq/Orca lineage)",
		Run:   runGenDecode,
	})
}

// genDecodeParams sizes the experiment; the smoke test runs a tiny variant
// so CI exercises the wiring without paying the full measurement.
type genDecodeParams struct {
	hidden, heads, inter, layers, vocab int
	promptLo, promptHi                  int
	warm, steps, reps                   int
	batches                             []int
}

func defaultGenDecodeParams() genDecodeParams {
	return genDecodeParams{
		hidden: 192, heads: 6, inter: 768, layers: 3, vocab: 512,
		promptLo: 8, promptHi: 56,
		warm: 8, steps: 24, reps: 3,
		batches: []int{1, 2, 4, 8},
	}
}

// genDecodeConfigs builds the encoder/decoder pair for one parameter set.
func genDecodeConfigs(p genDecodeParams) (model.Config, model.Config) {
	encCfg := model.BertBase().Scaled(p.hidden, p.heads, p.inter, p.layers)
	decCfg := model.Seq2SeqDecoder().Scaled(p.hidden, p.heads, p.inter, p.layers)
	decCfg.Vocab = p.vocab
	encCfg.Vocab = p.vocab
	decCfg.MaxTargetLen = p.warm + p.steps + 16
	return encCfg, decCfg
}

// genDecodeMode is one measured decode loop at constant batch occupancy:
// `batch` sessions over mixed-length prompts (opened as one packed prefill
// pass), a fresh session replacing every finished one so occupancy never
// drops. Streams are deterministic, so the grouped and per-row modes replay
// the identical schedule — the oracle check compares their token streams.
type genDecodeMode struct {
	p      genDecodeParams
	engine *core.GenEngine
	decCfg model.Config
	live   []*model.GenSession
	rng    *rand.Rand
	nextID int64
	stream []int
}

func newGenDecodeMode(p genDecodeParams, batch int, perRow bool) (*genDecodeMode, error) {
	return newGenDecodeModeOpts(p, batch, core.Options{Seed: 17}, perRow)
}

// newGenDecodeModeOpts is the generalised constructor: the fp16-path
// experiment reuses the same constant-occupancy decode loop under
// different engine options (FP16 on/off) and either attention arm (perRow
// selects the Generator's per-row oracle).
func newGenDecodeModeOpts(p genDecodeParams, batch int, opts core.Options, perRow bool) (*genDecodeMode, error) {
	encCfg, decCfg := genDecodeConfigs(p)
	engine, err := core.NewGenEngine(encCfg, decCfg, opts)
	if err != nil {
		return nil, err
	}
	engine.Generator.PerRowAttention = perRow
	m := &genDecodeMode{p: p, engine: engine, decCfg: decCfg, rng: rand.New(rand.NewSource(53))}
	// Initial fill: one packed prefill pass for the whole batch.
	ids := make([]int64, batch)
	prompts := make([][]int, batch)
	for i := range prompts {
		ids[i] = m.nextID
		m.nextID++
		prompts[i] = m.prompt()
	}
	m.live, err = engine.StartSessions(ids, prompts, []int{decCfg.MaxTargetLen})
	if err != nil {
		return nil, err
	}
	return m, nil
}

func (m *genDecodeMode) prompt() []int {
	n := m.p.promptLo
	if m.p.promptHi > m.p.promptLo {
		n += m.rng.Intn(m.p.promptHi - m.p.promptLo)
	}
	toks := make([]int, n)
	for j := range toks {
		toks[j] = 3 + m.rng.Intn(m.engine.Cfg.Vocab-3)
	}
	return toks
}

func (m *genDecodeMode) step() error {
	toks, err := m.engine.Step(m.live)
	if err != nil {
		return err
	}
	m.stream = append(m.stream, toks...)
	for i, s := range m.live {
		if !s.Done() {
			continue
		}
		s.Close()
		repl, err := m.engine.StartSession(m.nextID, m.prompt(), m.decCfg.MaxTargetLen)
		if err != nil {
			return err
		}
		m.nextID++
		m.live[i] = repl
	}
	return nil
}

func (m *genDecodeMode) close() {
	for _, s := range m.live {
		s.Close()
	}
}

// genDecodeMeasure runs both modes at one batch size with their timed reps
// INTERLEAVED (grouped, per-row, grouped, …) so background load on the host
// hits both measurements alike, and returns best-of-reps per-token seconds
// for each plus their token streams.
func genDecodeMeasure(p genDecodeParams, batch int) (ragged, perRow float64, raggedStream, perRowStream []int, err error) {
	mr, err := newGenDecodeMode(p, batch, false)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	defer mr.close()
	mp, err := newGenDecodeMode(p, batch, true)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	defer mp.close()
	for i := 0; i < p.warm; i++ {
		if err := mr.step(); err != nil {
			return 0, 0, nil, nil, err
		}
		if err := mp.step(); err != nil {
			return 0, 0, nil, nil, err
		}
	}
	timeReps := func(m *genDecodeMode) (float64, error) {
		start := liveNow()
		for i := 0; i < p.steps; i++ {
			if err := m.step(); err != nil {
				return 0, err
			}
		}
		return liveSince(start).Seconds(), nil
	}
	var bestR, bestP float64
	for r := 0; r < p.reps; r++ {
		sR, err := timeReps(mr)
		if err != nil {
			return 0, 0, nil, nil, err
		}
		sP, err := timeReps(mp)
		if err != nil {
			return 0, 0, nil, nil, err
		}
		if r == 0 || sR < bestR {
			bestR = sR
		}
		if r == 0 || sP < bestP {
			bestP = sP
		}
	}
	perTok := float64(p.steps * batch)
	return bestR / perTok, bestP / perTok, mr.stream, mp.stream, nil
}

func runGenDecode(w io.Writer) error {
	return runGenDecodeWith(w, defaultGenDecodeParams())
}

func runGenDecodeWith(w io.Writer, p genDecodeParams) error {
	_, decCfg := genDecodeConfigs(p)
	fmt.Fprintf(w, "decoder %s (hidden %d, %d layers, vocab %d), prompts %d–%d tokens, %d timed steps (best of %d), constant occupancy:\n",
		decCfg.Name, decCfg.Hidden, decCfg.Layers, decCfg.Vocab, p.promptLo, p.promptHi, p.steps, p.reps)

	t := newTable(w)
	t.row("batch", "ragged µs/tok", "per-row µs/tok", "grouped speedup", "vs ragged b=1", "oracle")
	us := func(s float64) string { return fmt.Sprintf("%.1f", s*1e6) }

	var raggedB1, raggedBest, perRowB1 float64
	bestBatch := 0
	for _, b := range p.batches {
		ragged, perRow, raggedStream, perRowStream, err := genDecodeMeasure(p, b)
		if err != nil {
			return err
		}
		oracle := "bit-identical"
		if len(raggedStream) != len(perRowStream) {
			oracle = "DIVERGED (stream lengths differ)"
		} else {
			for i := range raggedStream {
				if raggedStream[i] != perRowStream[i] {
					oracle = fmt.Sprintf("DIVERGED at token %d", i)
					break
				}
			}
		}
		if b == 1 {
			raggedB1, perRowB1 = ragged, perRow
		} else if bestBatch == 0 || ragged < raggedBest {
			bestBatch, raggedBest = b, ragged
		}
		scaling := "—"
		if b > 1 && raggedB1 > 0 {
			scaling = fmt.Sprintf("%.2fx", raggedB1/ragged)
		}
		t.row(b, us(ragged), us(perRow), fmt.Sprintf("%.2fx", perRow/ragged), scaling, oracle)
	}
	t.flush()

	// Verdicts the acceptance test pins: per-token decode cost must drop as
	// the batch grows (the whole point of ragged batched decode), and the
	// grouped path must not regress the singleton case.
	scaleStatus := "PASS"
	if bestBatch > 0 && raggedBest >= raggedB1 {
		scaleStatus = "FAIL"
	}
	fmt.Fprintf(w, "\nbatch scaling: ragged %.1f µs/tok at batch %d vs %.1f µs/tok at batch 1 (%.2fx): %s\n",
		raggedBest*1e6, bestBatch, raggedB1*1e6, raggedB1/raggedBest, scaleStatus)
	regressStatus := "PASS"
	if raggedB1 > perRowB1*1.35 {
		regressStatus = "FAIL"
	}
	fmt.Fprintf(w, "batch=1 regression: ragged %.1f µs/tok vs per-row %.1f µs/tok (tolerance 1.35x): %s\n",
		raggedB1*1e6, perRowB1*1e6, regressStatus)
	return nil
}
