package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/serving"
)

func init() {
	register(Experiment{
		ID:    "prefix-cache",
		Title: "Paged KV + shared-prefix caching: fixed-question serving throughput and reserved-vs-used KV overcommit",
		Paper: "§7 WeChat FAQ: a fixed question set repeats, so caching retired generations lifts admission density 1.88×; paged blocks shrink the reservation gap a worst-case grant would pay",
		Live:  true, // times real generation servers
		Run:   runPrefixCache,
	})
}

// prefixCacheParams sizes the experiment; the smoke test runs a tiny
// variant so CI exercises the wiring without the full measurement.
type prefixCacheParams struct {
	hidden, heads, inter, layers int
	candidates                   int // probed prompt pool the FAQ set is drawn from
	questions                    int // fixed FAQ set size
	rounds                       int // times the whole set is re-asked
	maxNew                       int // base decode budget
	contNew                      int // continuation budget (odd rounds) — forces block-table sharing
	maxBatch                     int // concurrent decode sequences per server
	workers                      int // concurrent clients replaying the trace
	gapN                         int // unique sessions for the reserved-vs-used phase
	gapMaxNew                    int // worst-case budget those requests declare
	seed                         int64
}

func defaultPrefixCacheParams() prefixCacheParams {
	return prefixCacheParams{
		hidden: 128, heads: 4, inter: 512, layers: 2,
		candidates: 18, questions: 6, rounds: 6,
		maxNew: 32, contNew: 48,
		maxBatch: 8, workers: 8,
		gapN: 24, gapMaxNew: 64,
		seed: 5,
	}
}

// newPrefixGenServer builds one generation server: KV paged through the
// engine's block pool with the shared-prefix cache in front.
func newPrefixGenServer(p prefixCacheParams) (*serving.Server, *core.GenEngine, error) {
	encCfg := model.BertBase().Scaled(p.hidden, p.heads, p.inter, p.layers)
	decCfg := model.Seq2SeqDecoder().Scaled(p.hidden, p.heads, p.inter, p.layers)
	engine, err := core.NewEngine(encCfg, core.Options{Seed: 1, Classes: 3})
	if err != nil {
		return nil, nil, err
	}
	genEngine, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: p.seed})
	if err != nil {
		return nil, nil, err
	}
	cost := sched.CostFunc(func(l, b int) time.Duration { return time.Duration(l*b) * 10 * time.Microsecond })
	srv, err := serving.NewServer(serving.ServerConfig{
		Engine:           engine,
		Scheduler:        &sched.DPScheduler{Cost: cost, MaxBatch: 8},
		MaxBatch:         8,
		GenEngine:        genEngine,
		GenMaxBatch:      p.maxBatch,
		GenDefaultMaxNew: p.maxNew,
	})
	if err != nil {
		return nil, nil, err
	}
	return srv, genEngine, nil
}

// genPost drives one /v1/generate request through a handler and returns
// the token stream (nil on non-200).
func genPost(h http.Handler, text string, maxNew int) ([]int, int) {
	body, _ := json.Marshal(map[string]interface{}{"text": text, "max_new_tokens": maxNew})
	req := httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, rec.Code
	}
	var out struct {
		Tokens []int `json:"tokens"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		return nil, rec.Code
	}
	return out.Tokens, rec.Code
}

// faqReq is one request of the fixed-question trace.
type faqReq struct {
	text   string
	budget int
}

// runFAQRound replays one round of the trace with bounded concurrency and
// returns the streams in request order plus how many came back non-200.
func runFAQRound(h http.Handler, reqs []faqReq, workers int) (streams [][]int, failed int) {
	streams = make([][]int, len(reqs))
	var failures int
	var mu sync.Mutex
	idx := make(chan int)
	var wg sync.WaitGroup
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				toks, code := genPost(h, reqs[i].text, reqs[i].budget)
				if code != http.StatusOK {
					mu.Lock()
					failures++
					mu.Unlock()
					continue
				}
				streams[i] = toks
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return streams, failures
}

// genPreemptions reads the preemption counter off the server's own stats
// endpoint — the number the operator would see, not an internal gauge.
func genPreemptions(h http.Handler) int64 {
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out struct {
		GenPreemptions int64 `json:"gen_preemptions"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		return -1
	}
	return out.GenPreemptions
}

// stepLive decodes up to steps iterations over the sessions that are still
// running; finished sessions drop out of the batch.
func stepLive(eng *core.GenEngine, sessions []*model.GenSession, steps int) error {
	for i := 0; i < steps; i++ {
		live := make([]*model.GenSession, 0, len(sessions))
		for _, s := range sessions {
			if !s.Done() {
				live = append(live, s)
			}
		}
		if len(live) == 0 {
			return nil
		}
		if _, err := eng.Step(live); err != nil {
			return err
		}
	}
	return nil
}

func runPrefixCache(w io.Writer) error {
	return runPrefixCacheWith(w, defaultPrefixCacheParams())
}

func runPrefixCacheWith(w io.Writer, p prefixCacheParams) error {
	// ---- Probe: pick the fixed question set and its reference streams ----
	//
	// Which prompts decode long (vs hitting EOS immediately) depends on the
	// seeded weights, so the FAQ set is chosen empirically: probe a candidate
	// pool on a reference server at the continuation budget (each candidate
	// asked once, so every probe decodes) and keep the longest streams. The
	// probe streams double as the bit-identity oracle — greedy decoding makes
	// any shorter ask of the same prompt an exact prefix of its probe stream.
	probe, probeEng, err := newPrefixGenServer(p)
	if err != nil {
		return err
	}
	candidates := []string{"hello", "alpha", "beta", "gamma", "delta"}
	for i := len(candidates); i < p.candidates; i++ {
		candidates = append(candidates, fmt.Sprintf("faq %c%c how do i %d", 'a'+i%26, 'a'+(i*7)%26, i))
	}
	type probed struct {
		text   string
		stream []int
	}
	pool := make([]probed, 0, len(candidates))
	for _, c := range candidates {
		toks, code := genPost(probe.Handler(), c, p.contNew)
		if code != http.StatusOK {
			probe.Close()
			return fmt.Errorf("probe %q: status %d", c, code)
		}
		pool = append(pool, probed{c, toks})
	}
	probe.Close()
	probeEng.Close()
	sort.SliceStable(pool, func(i, j int) bool { return len(pool[i].stream) > len(pool[j].stream) })
	if p.questions > len(pool) {
		p.questions = len(pool)
	}
	faq := pool[:p.questions]
	ref := make(map[string][]int, len(faq))
	longQs := 0
	for _, q := range faq {
		ref[q.text] = q.stream
		if len(q.stream) >= p.maxNew {
			longQs++
		}
	}
	fmt.Fprintf(w, "prefix-cache: fixed-question set of %d (of %d probed), %d decode ≥ %d tokens; %d rounds, budgets %d/%d, %d workers, gen batch %d\n",
		len(faq), len(pool), longQs, p.maxNew, p.rounds, p.maxNew, p.contNew, p.workers, p.maxBatch)

	// ---- Phase 1: fixed questions vs distinct prompts, one server ----
	//
	// The WeChat FAQ shape: the same question set is asked round after
	// round. Round 0 misses and retires; round 1 re-asks at a LARGER budget,
	// so the server continues off the donated block tables (copy-on-write
	// sharing, visible in the pool's peak-shared gauge); every later round is
	// a pure cache hit. The control trace has the same shape — prompts of the
	// same lengths at the same budgets, rounds as barriers — but every prompt
	// is new, so nothing is ever served from the cache. Both run on the same
	// server, fixed questions first, so the control pays no cold start the
	// cached trace did not: the makespan ratio is what the cache buys.
	faqTrace := make([][]faqReq, p.rounds)
	distinct := make([][]faqReq, p.rounds)
	for r := 0; r < p.rounds; r++ {
		budget := p.maxNew
		if r%2 == 1 {
			budget = p.contNew
		}
		for i, q := range faq {
			faqTrace[r] = append(faqTrace[r], faqReq{q.text, budget})
			distinct[r] = append(distinct[r], faqReq{distinctPrompt(r*len(faq)+i, len(q.text)), budget})
		}
	}
	expect := func(q string, budget int) []int {
		full := ref[q]
		if budget > len(full) {
			budget = len(full)
		}
		return full[:budget]
	}

	type traceRun struct {
		makespan time.Duration
		tokens   int
		failed   int
	}
	srv, eng, err := newPrefixGenServer(p)
	if err != nil {
		return err
	}
	diverged := 0
	runTrace := func(trace [][]faqReq, check bool) traceRun {
		var run traceRun
		start := liveNow()
		for r := range trace {
			streams, failed := runFAQRound(srv.Handler(), trace[r], p.workers)
			run.failed += failed
			for i, got := range streams {
				run.tokens += len(got)
				if got == nil || !check {
					continue
				}
				if want := expect(trace[r][i].text, trace[r][i].budget); !slices.Equal(got, want) {
					diverged++
				}
			}
		}
		run.makespan = liveSince(start)
		return run
	}
	faqRun := runTrace(faqTrace, true)
	prefixStats := eng.Generator.PrefixStats()
	poolStats := eng.Generator.BlockPool().Stats()
	distinctRun := runTrace(distinct, false)
	preempts := genPreemptions(srv.Handler())
	srv.Close()
	eng.Close()

	speedup := float64(distinctRun.makespan) / float64(faqRun.makespan)
	msf := func(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d)/1e6) }
	t := newTable(w)
	t.row("trace (same server)", "makespan-ms", "tokens", "failed", "prefix-hits", "replay-toks", "peak-shared-blk")
	t.row("fixed questions", msf(faqRun.makespan), faqRun.tokens, faqRun.failed,
		fmt.Sprint(prefixStats.Hits), fmt.Sprint(prefixStats.ReplayToks), fmt.Sprint(poolStats.PeakShared))
	t.row("distinct prompts", msf(distinctRun.makespan), distinctRun.tokens, distinctRun.failed, "-", "-", "-")
	t.flush()

	identity := "bit-identical"
	if diverged > 0 {
		identity = fmt.Sprintf("DIVERGED (%d streams off the greedy oracle)", diverged)
	}
	// The ≥1.5× makespan ratio is a wall-clock reading: printed beside its
	// target, never judged. What the verdict covers is exact.
	verdict := "PASS"
	if prefixStats.Hits == 0 || prefixStats.ReplayToks == 0 || poolStats.PeakShared == 0 ||
		diverged > 0 || faqRun.failed > 0 || distinctRun.failed > 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "  fixed-question speedup ×%.2f measured over distinct prompts (target ≥1.5)\n", speedup)
	fmt.Fprintf(w, "  %d prefix hits, %d replayed tokens, %d blocks peak-shared, streams %s, %d failed, %d preemptions → %s\n",
		prefixStats.Hits, prefixStats.ReplayToks, poolStats.PeakShared, identity, faqRun.failed+distinctRun.failed, preempts, verdict)

	// ---- Phase 2: reserved-vs-used overcommit, paged vs worst-case ----
	//
	// A batch of sessions each admitted with a worst-case budget it has
	// barely begun to use. A worst-case grant would reserve every session's
	// prompt plus its whole declared budget up front — (prompt + budget) ×
	// KVBytesPerToken, computed from the trace — while the pool holds only
	// the blocks the context actually reached. Two decode steps in, the KV
	// gauges are read at a deterministic instant (no wall-clock sampling) and
	// both are set against the bytes the rows occupy: the OVERCOMMIT RATIO
	// (reserved ÷ occupied) must shrink under paged blocks.
	encCfg := model.BertBase().Scaled(p.hidden, p.heads, p.inter, p.layers)
	decCfg := model.Seq2SeqDecoder().Scaled(p.hidden, p.heads, p.inter, p.layers)
	gapEng, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: p.seed})
	if err != nil {
		return err
	}
	ids := make([]int64, p.gapN)
	prompts := make([][]int, p.gapN)
	budgets := make([]int, p.gapN)
	worstTokens := 0
	for i := range ids {
		ids[i] = int64(i + 1)
		row := make([]int, 5+i%4)
		for j := range row {
			row[j] = 3 + (i*17+j*7)%(encCfg.Vocab-3)
		}
		prompts[i] = row
		budgets[i] = p.gapMaxNew
		worstTokens += len(row) + p.gapMaxNew
	}
	sess, err := gapEng.StartSessions(ids, prompts, budgets)
	if err != nil {
		gapEng.Close()
		return err
	}
	stepErr := stepLive(gapEng, sess, 2)
	snap := gapEng.MemoryStats()
	type gapRow struct{ reserved, used int64 }
	worst := gapRow{int64(worstTokens) * gapEng.KVBytesPerToken(), snap.KVUsedBytes}
	paged := gapRow{snap.KVReservedBytes, snap.KVUsedBytes}
	for _, s := range sess {
		s.Close()
	}
	gapEng.Close()
	if stepErr != nil {
		return stepErr
	}
	ratio := func(g gapRow) float64 {
		if g.used == 0 {
			return float64(g.reserved)
		}
		return float64(g.reserved) / float64(g.used)
	}
	kb := func(b int64) string { return fmt.Sprintf("%.1f", float64(b)/1024) }
	t = newTable(w)
	t.row("reserved-vs-used @2 steps", "reserved-KiB", "used-KiB", "gap-KiB", "overcommit")
	for _, r := range []struct {
		name string
		g    gapRow
	}{{"worst-case grant (prompt+budget)", worst}, {"paged (per-block)", paged}} {
		t.row(r.name, kb(r.g.reserved), kb(r.g.used), kb(r.g.reserved-r.g.used), fmt.Sprintf("%.2fx", ratio(r.g)))
	}
	t.flush()
	gapVerdict := "PASS"
	if ratio(paged) >= ratio(worst) {
		gapVerdict = "FAIL"
	}
	fmt.Fprintf(w, "  reserved-vs-used overcommit %.2fx → %.2fx (paged must shrink the worst-case ratio) → %s\n",
		ratio(worst), ratio(paged), gapVerdict)
	return nil
}

// distinctPrompt is the control trace's prompt number id: n characters
// that no fixed question and no other control prompt shares (the
// questions are lower-case; an upper-case two-letter tag leads here).
func distinctPrompt(id, n int) string {
	tag := fmt.Sprintf("%c%c", 'A'+id/26%26, 'A'+id%26)
	return (tag + strings.Repeat("~", n))[:max(n, len(tag))]
}
