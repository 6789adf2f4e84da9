package serving

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
)

// Detokenize maps generated token IDs back to text. Tokens in the byte
// range invert Tokenize exactly (when the vocabulary covers it); anything
// else — small demo vocabularies, or generated IDs beyond the byte range
// that no real input maps to — folds into printable ASCII so streams stay
// readable instead of wrapping into control bytes. Special tokens are
// dropped.
func Detokenize(toks []int, vocab int) string {
	out := make([]byte, 0, len(toks))
	for _, t := range toks {
		if t < 3 {
			continue
		}
		if vocab-3 >= 256 && t-3 < 256 {
			out = append(out, byte(t-3))
		} else {
			out = append(out, byte(32+(t-3)%95))
		}
	}
	return string(out)
}

// genEvent is one update on a generation stream.
type genEvent struct {
	tok  int
	done bool
	err  error
	// snap is the terminal event of a prefill-only job: the session's
	// exported state, ready to import on a decode replica. The tokens of a
	// prefill-only job travel inside the snapshot, never as tok events.
	snap *model.SessionSnapshot
}

// liveGen pairs an admitted job with its decode session. sent mirrors
// job.emitted while the session lives: the index into Generated() up to
// which tokens have been delivered — ahead of the session's own progress
// right after a preempted job is readmitted (the regenerated prefix is
// suppressed), behind it right after a prefix-cache replay (the replayed
// tokens flush immediately).
type liveGen struct {
	id   int64
	job  *Job
	sess *model.GenSession
	sent int
}

// genDispatcher is the continuous-batching generation path behind the
// admission queue: a ContinuousScheduler gating admission and one decode
// loop that advances every live session a token at a time, admitting and
// evicting between iterations (iteration-level batching, in contrast to
// the classify dispatcher's whole-batch scheduling). Each live session is
// bound to its job's context, and the loop checks that context between
// iterations — a disconnected client or a passed deadline is evicted
// within one decode step, its KV blocks released.
type genDispatcher struct {
	srv           *Server
	engine        *core.GenEngine
	sched         *sched.ContinuousScheduler
	defaultMaxNew int

	// stepNeed is the worst-case block cost of one session's next decode row
	// (a fresh K and V block on every layer) — the unit the admission gate,
	// the scavenger, and the watermark all reason in.
	stepNeed int

	requests  atomic.Int64
	tokensOut atomic.Int64
	stepsRun  atomic.Int64
	peakBatch atomic.Int64
}

func newGenDispatcher(srv *Server, engine *core.GenEngine, maxBatch, defaultMaxNew int) *genDispatcher {
	if defaultMaxNew < 1 {
		defaultMaxNew = 32
	}
	d := &genDispatcher{
		srv:           srv,
		engine:        engine,
		sched:         sched.NewContinuousScheduler(maxBatch, 0),
		defaultMaxNew: defaultMaxNew,
		stepNeed:      2 * engine.DecCfg.Layers,
	}
	gen := engine.Generator
	pool := gen.BlockPool()
	d.sched.Gate = &sched.BlockGate{
		// Retired prefix KV is scavengeable on demand, so it counts as free
		// for admission — the pre-step hook reclaims it before ever
		// preempting live work.
		Free:      func() int { return pool.FreeBlocks() + gen.PrefixStats().KVBlocks },
		Need:      func(*sched.GenRequest) int { return d.stepNeed },
		Watermark: d.stepNeed,
	}
	// The admission hook drops a queue-head job whose lifecycle ended while
	// it waited — deadline passed or client gone — failing it (the events
	// channel is buffered) and counting it, so a dead request at the FCFS
	// head cannot block live ones behind it while its reservation would not
	// fit. This is the "dropped before scheduling" half of deadline
	// enforcement; the per-iteration check below is the in-flight half.
	d.sched.Cancelled = func(r *sched.GenRequest) bool {
		j := r.Payload.(*Job)
		err := j.dropErr(time.Now())
		if err == nil {
			return false
		}
		d.srv.countDrop(j, err)
		j.fail(err)
		return true
	}
	return d
}

// Kind implements Dispatcher.
func (d *genDispatcher) Kind() JobKind { return JobGenerate }

// emit flushes every not-yet-delivered generated token to the job's stream:
// freshly decoded tokens, a prefix-cache replay all at once, and nothing at
// all while a readmitted session is still regenerating the prefix its
// preempted predecessor already delivered.
func (d *genDispatcher) emit(lg *liveGen) {
	g := lg.sess.Generated()
	for ; lg.sent < len(g); lg.sent++ {
		lg.job.events <- genEvent{tok: g[lg.sent]}
		d.tokensOut.Add(1)
	}
	lg.job.emitted = lg.sent
}

// finish closes out a completed generation: the session is retired —
// donated to the prefix cache so the next identical prompt replays it — and
// the job's stream gets its terminal event.
func (d *genDispatcher) finish(lg *liveGen) {
	d.sched.Evict(lg.id)
	d.engine.Retire(lg.sess)
	lg.job.events <- genEvent{done: true}
	d.srv.completions.Add(1)
}

// ensureCapacity is the pre-step reservation hook: every live
// session must be able to append its next KV row BEFORE the iteration runs,
// so Step itself never fails mid-batch. A shortfall escalates in order —
// scavenge retired prefix KV, then preempt the most preemptible batch-mate
// (its session is freed and its job requeued at the front of its priority
// class; greedy determinism makes the recompute lossless, and the emitted
// counter keeps the stream from repeating). A session that cannot be
// covered even with the whole pool to itself fails: the pool is undersized
// for that request. Returns the surviving live set.
func (d *genDispatcher) ensureCapacity(live []*liveGen) []*liveGen {
	preempted := map[int64]bool{}
	failed := map[int64]bool{}
	for _, lg := range live {
		if preempted[lg.id] {
			continue
		}
		for !lg.sess.EnsureAppendable() {
			if d.engine.Generator.ScavengePrefix(d.stepNeed) > 0 {
				continue
			}
			v := d.sched.PreemptLowest(lg.id)
			if v == nil {
				failed[lg.id] = true
				break
			}
			for _, cand := range live {
				if cand.id == v.ID {
					v.Payload.(*Job).emitted = cand.sent
					cand.sess.Close() // frees its blocks for lg
					break
				}
			}
			preempted[v.ID] = true
			d.sched.EnqueueFront(v)
		}
	}
	if len(preempted)+len(failed) == 0 {
		return live
	}
	kept := live[:0]
	for _, lg := range live {
		switch {
		case preempted[lg.id]:
			// Session already closed, job requeued — NOT failed: it will be
			// readmitted, recomputed, and resume its stream where it stopped.
		case failed[lg.id]:
			d.sched.Evict(lg.id)
			lg.sess.Close()
			lg.job.fail(model.ErrKVPoolExhausted)
			d.srv.completions.Add(1)
		default:
			kept = append(kept, lg)
		}
	}
	return kept
}

// importSnap rebuilds a migrated session on this replica's device — the
// decode-side admission path of a KV hand-off. A pool shortfall first
// scavenges retired prefix KV and retries once before failing the job. The
// router's onImported hook fires only after the import actually succeeded,
// so migration counters never count failed attempts.
func (d *genDispatcher) importSnap(id int64, j *Job) (*liveGen, error) {
	sess, err := d.engine.ImportSession(j.snap)
	if errors.Is(err, model.ErrKVPoolExhausted) {
		if d.engine.Generator.ScavengePrefix(d.importBlocks(j.snap)) > 0 {
			sess, err = d.engine.ImportSession(j.snap)
		}
	}
	if err != nil {
		return nil, err
	}
	if j.onImported != nil {
		j.onImported()
	}
	sess.Bind(j.Context())
	return &liveGen{id: id, job: j, sess: sess, sent: j.emitted}, nil
}

// importBlocks is how many pool blocks importing snap takes here: a K and a
// V table per layer covering the committed rows and the next decode row, at
// this replica's rows per block — twice as many on binary16 as on fp32.
func (d *genDispatcher) importBlocks(snap *model.SessionSnapshot) int {
	rows := d.engine.Generator.BlockTokens()
	return d.stepNeed * ((snap.KVLen + rows) / rows)
}

// Run implements Dispatcher: the continuous-batching decode loop. Each
// turn: pull newly admitted jobs from the shared queue, evict sessions
// whose context ended, admit whatever fits, run ONE decode iteration
// across all live sessions, deliver each new token, and evict finished
// sessions — so requests join and leave at token granularity.
func (d *genDispatcher) Run(q *Queue) {
	var live []*liveGen
	root := d.srv.root

	for {
		// Abort: fail everything still queued or running, then leave.
		if root.Err() != nil {
			for _, r := range d.sched.Drain() {
				r.Payload.(*Job).fail(ErrServerClosed)
				d.srv.completions.Add(1)
			}
			for _, lg := range live {
				d.sched.Evict(lg.id)
				lg.sess.Close()
				lg.job.fail(ErrServerClosed)
				d.srv.completions.Add(1)
			}
			return
		}

		// Pull new work from the shared admission queue — blocking only
		// when fully idle, so a running batch keeps stepping while arrivals
		// trickle in.
		idle := d.sched.Idle() && len(live) == 0
		jobs, ok := q.take(JobGenerate, idle)
		if !ok && d.sched.Idle() && len(live) == 0 {
			return // queue finished and nothing left to serve
		}
		for _, j := range jobs {
			d.sched.Enqueue(&sched.GenRequest{
				ID:        j.ID,
				PromptLen: len(j.Tokens),
				MaxNew:    j.MaxNew,
				Arrival:   secs(j.Arrival),
				Deadline:  secs(j.Deadline),
				Priority:  j.Priority,
				Payload:   j,
			})
		}

		// Context check between iterations: sessions whose job context
		// ended (client disconnect, deadline) are evicted at this boundary,
		// releasing their batch slot and KV token reservation.
		now := time.Now()
		kept := live[:0]
		for _, lg := range live {
			if lg.sess.Cancelled() {
				err := lg.job.dropErr(now)
				if err == nil {
					err = ErrServerClosed
				}
				d.sched.Evict(lg.id)
				lg.sess.Close()
				d.srv.countDrop(lg.job, err)
				lg.job.fail(err)
				continue
			}
			kept = append(kept, lg)
		}
		live = kept

		// Admission: start sessions for everything the scheduler lets in
		// (the admission hook has already dropped dead queue heads). All
		// admitted prompts prefill as ONE packed encoder pass — a batch of
		// ragged prefill slots between decode iterations — instead of one
		// padded encode per request. Jobs carrying a migrated snapshot skip
		// prefill entirely: their session is imported onto this replica's
		// device instead.
		var ids []int64
		var prompts [][]int
		var budgets []int
		var admitted []*Job
		for _, r := range d.sched.Admit() {
			j := r.Payload.(*Job)
			if err := j.dropErr(now); err != nil {
				d.sched.Evict(r.ID)
				d.srv.countDrop(j, err)
				j.fail(err)
				continue
			}
			if j.snap != nil {
				lg, err := d.importSnap(r.ID, j)
				if err != nil {
					d.sched.Evict(r.ID)
					j.fail(err)
					d.srv.completions.Add(1)
					continue
				}
				// A snapshot of a born-done session (prefix replay on the
				// prefill side) flushes its tokens here and finishes at once.
				d.emit(lg)
				if lg.sess.Done() {
					d.finish(lg)
					continue
				}
				live = append(live, lg)
				continue
			}
			ids = append(ids, r.ID)
			prompts = append(prompts, j.Tokens)
			budgets = append(budgets, j.MaxNew)
			admitted = append(admitted, j)
		}
		if len(admitted) > 0 {
			sessions, err := d.engine.StartSessions(ids, prompts, budgets)
			if err != nil {
				for i, j := range admitted {
					d.sched.Evict(ids[i])
					j.fail(err)
					d.srv.completions.Add(1)
				}
			} else {
				for i, j := range admitted {
					sessions[i].Bind(j.Context())
					if j.prefillOnly {
						// Hand-off boundary: export everything the decode
						// replica needs, then release every device byte the
						// session held HERE before the migration even starts —
						// copy-then-close, so the mid-migration window charges
						// neither side's gauges.
						snap, exErr := d.engine.DetachSession(sessions[i])
						d.sched.Evict(ids[i])
						d.srv.completions.Add(1)
						if exErr != nil {
							j.fail(exErr)
							continue
						}
						j.events <- genEvent{snap: snap, done: true}
						continue
					}
					lg := &liveGen{id: ids[i], job: j, sess: sessions[i], sent: j.emitted}
					// A prefix-cache replay delivers its cached tokens right
					// here; a full-answer hit is born done and never decodes.
					d.emit(lg)
					if lg.sess.Done() {
						d.finish(lg)
						continue
					}
					live = append(live, lg)
				}
			}
		}
		if len(live) == 0 {
			continue
		}

		// Reserve every session's next KV row before stepping (scavenging or
		// preempting on shortfall), so Step never fails mid-batch on an
		// exhausted pool.
		if live = d.ensureCapacity(live); len(live) == 0 {
			continue
		}

		// One decode iteration over the ragged batch.
		sessions := make([]*model.GenSession, len(live))
		for i, lg := range live {
			sessions[i] = lg.sess
		}
		if _, err := d.engine.Step(sessions); err != nil {
			for _, lg := range live {
				d.sched.Evict(lg.id)
				lg.sess.Close()
				lg.job.fail(err)
				d.srv.completions.Add(1)
			}
			live = nil
			continue
		}
		d.stepsRun.Add(1)
		for prev := d.peakBatch.Load(); int64(len(live)) > prev; prev = d.peakBatch.Load() {
			if d.peakBatch.CompareAndSwap(prev, int64(len(live))) {
				break
			}
		}

		alive := live[:0]
		for _, lg := range live {
			d.emit(lg)
			if lg.sess.Done() {
				d.finish(lg)
				continue
			}
			alive = append(alive, lg)
		}
		live = alive
		// Let the handlers write what was just emitted: a busy loop never
		// blocks, so on one P they would otherwise first run when the batch
		// drains, and every streamed token would leave at the end.
		runtime.Gosched()
	}
}

// generateRequest is the POST /v1/generate body.
type generateRequest struct {
	Text         string `json:"text"`
	MaxNewTokens int    `json:"max_new_tokens"`
	Stream       bool   `json:"stream"`
	// DeadlineMS is an optional per-job deadline in milliseconds from
	// arrival; a generation still unscheduled past it is dropped with 504,
	// and a running one is evicted at the next iteration boundary.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Priority admits higher values first within a kind (ties FCFS).
	Priority int `json:"priority,omitempty"`
}

// generateResponse is the aggregate (non-streaming) reply.
type generateResponse struct {
	Tokens       []int   `json:"tokens"`
	Text         string  `json:"text"`
	PromptTokens int     `json:"prompt_tokens"`
	LatencyMS    float64 `json:"latency_ms"`
	// TTFTMS is the time-to-first-token: arrival to the first decoded
	// token reaching the serving layer — the prefill-phase latency, which
	// under disaggregation includes the KV hand-off.
	TTFTMS float64 `json:"ttft_ms,omitempty"`
}

// streamChunk is one NDJSON line of a streaming reply. A terminal chunk
// has Done set; a failed generation additionally carries Error (headers
// are already written by then, so HTTP status cannot signal it).
type streamChunk struct {
	Token     int     `json:"token,omitempty"`
	Text      string  `json:"text,omitempty"`
	Done      bool    `json:"done,omitempty"`
	Tokens    int     `json:"tokens,omitempty"`
	LatencyMS float64 `json:"latency_ms,omitempty"`
	// TTFTMS rides the terminal chunk: arrival-to-first-token in ms.
	TTFTMS float64 `json:"ttft_ms,omitempty"`
	Error  string  `json:"error,omitempty"`
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req generateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Text == "" {
		httpError(w, http.StatusBadRequest, "body must be {\"text\": ..., \"max_new_tokens\": n, \"stream\": bool}")
		return
	}
	if s.shedSLO(w, req.Priority) {
		return
	}
	s.serveGenerate(w, r, req)
}

// genBudget resolves a request's decode budget against this server's
// default and the decoder's hard cap — the token count the continuous
// scheduler reserves and the router prices. Zero when generation is off.
func (s *Server) genBudget(reqMaxNew int) int {
	if s.gen == nil {
		return 0
	}
	maxNew := reqMaxNew
	if maxNew <= 0 {
		maxNew = s.gen.defaultMaxNew
	}
	if limit := s.gen.engine.DecCfg.MaxTargetLen; maxNew > limit {
		maxNew = limit
	}
	return maxNew
}

// serveGenerate runs one already-decoded generate request through this
// server's continuous-batching path — the shared core of the single-server
// handler and the Router front door (which decodes the body itself to
// price the request before picking a replica).
func (s *Server) serveGenerate(w http.ResponseWriter, r *http.Request, req generateRequest) {
	if s.gen == nil {
		httpError(w, http.StatusServiceUnavailable, "generation not enabled on this server")
		return
	}
	d := s.gen
	d.requests.Add(1)
	maxNew := s.genBudget(req.MaxNewTokens)
	start := time.Now()
	var deadline time.Time
	if req.DeadlineMS > 0 {
		deadline = start.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	job, err := s.submit(JobGenerate, Tokenize(req.Text, d.engine.Cfg.Vocab), maxNew, req.Priority, deadline, r.Context())
	if err != nil {
		s.writeJobError(w, err)
		return
	}
	defer job.Cancel()
	s.streamGenerate(w, r, req, job, start)
}

// streamGenerate consumes a submitted generation job's event stream into
// the HTTP reply — aggregate JSON or NDJSON chunks — tracking
// time-to-first-token against start (the request's ORIGINAL arrival, which
// a hand-off carries over from the prefill replica so TTFT prices the
// whole prefill+migration phase).
func (s *Server) streamGenerate(w http.ResponseWriter, r *http.Request, req generateRequest, job *Job, start time.Time) {
	// A client disconnect cancels the job's context; the decode loop evicts
	// it at the next iteration boundary instead of generating the rest of
	// the budget into the void.
	clientGone := r.Context().Done()
	vocab := s.gen.engine.DecCfg.Vocab
	var ttft float64
	markFirst := func() {
		if ttft == 0 {
			ttft = float64(time.Since(start)) / 1e6
		}
	}
	if !req.Stream {
		var toks []int
		for {
			select {
			case ev := <-job.events:
				if ev.err != nil {
					s.writeJobError(w, ev.err)
					return
				}
				if ev.done {
					writeJSON(w, generateResponse{
						Tokens:       toks,
						Text:         Detokenize(toks, vocab),
						PromptTokens: len(job.Tokens),
						LatencyMS:    float64(time.Since(start)) / 1e6,
						TTFTMS:       ttft,
					})
					return
				}
				markFirst()
				toks = append(toks, ev.tok)
			case <-clientGone:
				job.Cancel()
				return
			}
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	n := 0
	for {
		select {
		case ev := <-job.events:
			if ev.err != nil {
				// Headers are already out; deliver the error as a chunk.
				_ = enc.Encode(streamChunk{Done: true, Tokens: n, Error: ev.err.Error()})
				return
			}
			if ev.done {
				_ = enc.Encode(streamChunk{Done: true, Tokens: n, LatencyMS: float64(time.Since(start)) / 1e6, TTFTMS: ttft})
				return
			}
			markFirst()
			n++
			if err := enc.Encode(streamChunk{Token: ev.tok, Text: Detokenize([]int{ev.tok}, vocab)}); err != nil {
				job.Cancel()
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-clientGone:
			job.Cancel()
			return
		}
	}
}

// runPrefill runs ONLY the prefill phase of a generate request on this
// server and returns the session's exported snapshot — the first half of a
// role-tagged hand-off. The job flows through the normal admission queue
// and scheduler (so prefill replicas still gate and prioritise), but the
// dispatcher exports and closes the session at the prefill boundary
// instead of decoding. On return this server holds no device memory for
// the session.
func (s *Server) runPrefill(ctx context.Context, req generateRequest, start time.Time) (*model.SessionSnapshot, error) {
	if s.gen == nil {
		return nil, ErrServerClosed
	}
	d := s.gen
	maxNew := s.genBudget(req.MaxNewTokens)
	var deadline time.Time
	if req.DeadlineMS > 0 {
		deadline = start.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	job, err := s.submit(JobGenerate, Tokenize(req.Text, d.engine.Cfg.Vocab), maxNew, req.Priority, deadline, ctx,
		func(j *Job) { j.prefillOnly = true })
	if err != nil {
		return nil, err
	}
	defer job.Cancel()
	for {
		select {
		case ev := <-job.events:
			if ev.err != nil {
				return nil, ev.err
			}
			if ev.snap != nil {
				return ev.snap, nil
			}
			if ev.done {
				return nil, ErrServerClosed // drained before export; caller maps to 503
			}
		case <-ctx.Done():
			job.Cancel()
			return nil, context.Canceled
		}
	}
}

// serveHandoff finishes a migrated generation on this server — the second
// half of a hand-off. The snapshot is attached to a normal generation job
// (admission still prices prompt+budget, so decode replicas gate and
// preempt exactly like local sessions); at admission the dispatcher
// imports it instead of prefilling, fires onImported for the router's
// migration accounting, and decode streams from here on. start is the
// request's original arrival on the router, so latency and TTFT span both
// phases.
func (s *Server) serveHandoff(w http.ResponseWriter, r *http.Request, req generateRequest, snap *model.SessionSnapshot, start time.Time, onImported func()) {
	if s.gen == nil {
		httpError(w, http.StatusServiceUnavailable, "generation not enabled on this server")
		return
	}
	d := s.gen
	d.requests.Add(1)
	var deadline time.Time
	if req.DeadlineMS > 0 {
		deadline = start.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	job, err := s.submit(JobGenerate, Tokenize(req.Text, d.engine.Cfg.Vocab), snap.MaxNew, req.Priority, deadline, r.Context(),
		func(j *Job) {
			j.snap = snap
			j.onImported = onImported
		})
	if err != nil {
		s.writeJobError(w, err)
		return
	}
	defer job.Cancel()
	s.streamGenerate(w, r, req, job, start)
}
