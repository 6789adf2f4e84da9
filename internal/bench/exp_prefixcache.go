package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
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
		Paper: "§7 WeChat FAQ: a fixed question set repeats, so caching retired generations lifts admission density 1.88×; paged blocks shrink the worst-case reservation gap the contiguous cache pays",
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
	gapN                         int // unique requests for the reserved-vs-used phase
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

// newPrefixGenServer builds one generation server. paged=false is the
// contiguous-KV baseline (worst-case token reservations); paged=true pages
// the KV through the block pool with the shared-prefix cache in front.
// Both share seeds, so their greedy streams are bit-identical by
// construction — the experiment verifies that, it does not assume it.
func newPrefixGenServer(p prefixCacheParams, paged bool, kvBlocks int) (*serving.Server, *core.GenEngine, error) {
	encCfg := model.BertBase().Scaled(p.hidden, p.heads, p.inter, p.layers)
	decCfg := model.Seq2SeqDecoder().Scaled(p.hidden, p.heads, p.inter, p.layers)
	engine, err := core.NewEngine(encCfg, core.Options{Seed: 1, Classes: 3})
	if err != nil {
		return nil, nil, err
	}
	genEngine, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: p.seed, PagedKV: paged, PagedKVBlocks: kvBlocks})
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
	// pool on a contiguous-KV reference server at the continuation budget and
	// keep the longest streams. The probe streams double as the bit-identity
	// oracle — greedy decoding makes any shorter ask of the same prompt an
	// exact prefix of its probe stream.
	probe, probeEng, err := newPrefixGenServer(p, false, 0)
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

	// ---- Phase 1: fixed-question throughput, shared vs unshared ----
	//
	// The WeChat FAQ shape: the same question set is asked round after
	// round. Round 0 misses and retires; round 1 re-asks at a LARGER budget,
	// so the paged server continues off the donated block tables
	// (copy-on-write sharing, visible in the pool's peak-shared gauge);
	// every later round is a pure cache hit. The contiguous baseline decodes
	// every round from scratch. Rounds are barriers — within a round the
	// workers race, between rounds the cache is warm — so both servers see
	// the identical, admissible workload.
	trace := make([][]faqReq, p.rounds)
	for r := 0; r < p.rounds; r++ {
		budget := p.maxNew
		if r%2 == 1 {
			budget = p.contNew
		}
		for _, q := range faq {
			trace[r] = append(trace[r], faqReq{q.text, budget})
		}
	}
	expect := func(q string, budget int) []int {
		full := ref[q]
		if budget > len(full) {
			budget = len(full)
		}
		return full[:budget]
	}

	type faqRun struct {
		makespan time.Duration
		failed   int
	}
	diverged := 0
	measure := func(paged bool) (faqRun, *core.GenEngine, *serving.Server, error) {
		srv, eng, err := newPrefixGenServer(p, paged, 0)
		if err != nil {
			return faqRun{}, nil, nil, err
		}
		var run faqRun
		start := liveNow()
		for r := range trace {
			streams, failed := runFAQRound(srv.Handler(), trace[r], p.workers)
			run.failed += failed
			for i, got := range streams {
				if got == nil {
					continue
				}
				want := expect(trace[r][i].text, trace[r][i].budget)
				if len(got) != len(want) {
					diverged++
					continue
				}
				for j := range got {
					if got[j] != want[j] {
						diverged++
						break
					}
				}
			}
		}
		run.makespan = liveSince(start)
		return run, eng, srv, nil
	}

	legacyRun, legacyEng, legacySrv, err := measure(false)
	if err != nil {
		return err
	}
	legacySrv.Close()
	legacyEng.Close()
	pagedRun, pagedEng, pagedSrv, err := measure(true)
	if err != nil {
		return err
	}
	pagedStats := pagedEng.Generator.PrefixStats()
	poolStats := pagedEng.Generator.BlockPool().Stats()
	preempts := genPreemptions(pagedSrv.Handler())
	pagedSrv.Close()
	pagedEng.Close()

	speedup := float64(legacyRun.makespan) / float64(pagedRun.makespan)
	msf := func(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d)/1e6) }
	t := newTable(w)
	t.row("fixed-question trace", "makespan-ms", "failed", "prefix-hits", "replay-toks", "peak-shared-blk")
	t.row("contiguous (unshared)", msf(legacyRun.makespan), legacyRun.failed, "-", "-", "-")
	t.row("paged + prefix cache", msf(pagedRun.makespan), pagedRun.failed,
		fmt.Sprint(pagedStats.Hits), fmt.Sprint(pagedStats.ReplayToks), fmt.Sprint(poolStats.PeakShared))
	t.flush()

	identity := "bit-identical"
	if diverged > 0 {
		identity = fmt.Sprintf("DIVERGED (%d streams off the greedy oracle)", diverged)
	}
	// The ≥1.5× makespan ratio is a wall-clock reading: printed beside its
	// target, never judged. What the verdict covers is exact.
	verdict := "PASS"
	if pagedStats.Hits == 0 || pagedStats.ReplayToks == 0 || poolStats.PeakShared == 0 ||
		diverged > 0 || pagedRun.failed > 0 || legacyRun.failed > 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "  fixed-question speedup ×%.2f measured (target ≥1.5)\n", speedup)
	fmt.Fprintf(w, "  %d prefix hits, %d replayed tokens, %d blocks peak-shared, streams %s, %d failed, %d preemptions → %s\n",
		pagedStats.Hits, pagedStats.ReplayToks, poolStats.PeakShared, identity, pagedRun.failed+legacyRun.failed, preempts, verdict)

	// ---- Phase 2: reserved-vs-used overcommit, paged vs contiguous ----
	//
	// A batch of sessions each admitted with a worst-case budget it has
	// barely begun to use: the contiguous cache reserves the full budget
	// per session at admission, the paged cache holds only the blocks the
	// context actually reached. Two decode steps in, the KV gauges are read
	// at a deterministic instant (no wall-clock sampling). The comparable
	// number is the OVERCOMMIT RATIO (reserved ÷ occupied): the paged
	// side's reservation gauge carries its preallocated arena (sized here
	// to the offered concurrency, the way an operator would size it), so
	// absolute bytes measure arena size, not admission honesty — the ratio
	// must shrink.
	perSeq := 2 * p.layers * ((p.gapMaxNew + model.KVChunkTokens - 1) / model.KVChunkTokens)
	gapBlocks := p.gapN*perSeq + 2*2*p.layers // live worst case + watermark slack
	type gapRun struct {
		reserved, used, gap int64
	}
	measureGap := func(paged bool) (gapRun, error) {
		encCfg := model.BertBase().Scaled(p.hidden, p.heads, p.inter, p.layers)
		decCfg := model.Seq2SeqDecoder().Scaled(p.hidden, p.heads, p.inter, p.layers)
		kvBlocks := 0
		if paged {
			kvBlocks = gapBlocks
		}
		eng, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: p.seed, PagedKV: paged, PagedKVBlocks: kvBlocks})
		if err != nil {
			return gapRun{}, err
		}
		ids := make([]int64, p.gapN)
		prompts := make([][]int, p.gapN)
		budgets := make([]int, p.gapN)
		for i := range ids {
			ids[i] = int64(i + 1)
			row := make([]int, 5+i%4)
			for j := range row {
				row[j] = 3 + (i*17+j*7)%(encCfg.Vocab-3)
			}
			prompts[i] = row
			budgets[i] = p.gapMaxNew
		}
		sess, err := eng.StartSessions(ids, prompts, budgets)
		if err != nil {
			eng.Close()
			return gapRun{}, err
		}
		closeAll := func() {
			for _, s := range sess {
				s.Close()
			}
			eng.Close()
		}
		if err := stepLive(eng, sess, 2); err != nil {
			closeAll()
			return gapRun{}, err
		}
		snap := eng.MemoryStats()
		closeAll()
		return gapRun{snap.KVReservedBytes, snap.KVUsedBytes, snap.KVReservedBytes - snap.KVUsedBytes}, nil
	}
	legacyGap, err := measureGap(false)
	if err != nil {
		return err
	}
	pagedGap, err := measureGap(true)
	if err != nil {
		return err
	}
	ratio := func(g gapRun) float64 {
		if g.used == 0 {
			return float64(g.reserved)
		}
		return float64(g.reserved) / float64(g.used)
	}
	kb := func(b int64) string { return fmt.Sprintf("%.1f", float64(b)/1024) }
	t = newTable(w)
	t.row("reserved-vs-used @2 steps", "reserved-KiB", "used-KiB", "gap-KiB", "overcommit")
	t.row("contiguous (worst-case)", kb(legacyGap.reserved), kb(legacyGap.used), kb(legacyGap.gap), fmt.Sprintf("%.2fx", ratio(legacyGap)))
	t.row("paged (per-block)", kb(pagedGap.reserved), kb(pagedGap.used), kb(pagedGap.gap), fmt.Sprintf("%.2fx", ratio(pagedGap)))
	t.flush()
	gapVerdict := "PASS"
	if ratio(pagedGap) >= ratio(legacyGap) {
		gapVerdict = "FAIL"
	}
	fmt.Fprintf(w, "  reserved-vs-used overcommit %.2fx → %.2fx (paged must shrink the ratio) → %s\n",
		ratio(legacyGap), ratio(pagedGap), gapVerdict)
	return nil
}
