// Package serving implements the TurboTransformers serving framework (§5)
// as a live net/http service running the CPU engine: message queue, response
// cache, batch-scheduler dispatch with the hungry and lazy triggers,
// continuous-batching generation, and the multi-replica Router above it. The
// virtual-clock model of the same stack (the Figs. 15–16 experiments) is
// internal/servingsim.
package serving

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// Tokenize is the demo tokenizer: byte-level IDs offset past the special
// tokens, clamped into the engine's vocabulary. Vocabularies too small to
// hold any non-special token (vocab <= 3) fold every byte onto the first
// non-special ID instead of dividing by zero.
func Tokenize(text string, vocab int) []int {
	span := vocab - 3
	if span < 1 {
		span = 1
	}
	toks := make([]int, 0, len(text))
	for _, b := range []byte(text) {
		toks = append(toks, 3+int(b)%span)
	}
	return toks
}

// Server is the live serving framework: an HTTP front end, ONE bounded
// admission queue both request kinds flow through, the response cache, and
// two Dispatchers playing the GPU's role on the CPU engines — the
// DP-batched classify worker (hungry by default; a non-zero BatchWindow
// switches to the lazy strategy of §5) and the continuous-batching
// generation loop. Every request is a Job carrying its lifecycle context:
// backpressure is refused at the front door (ErrQueueFull → 429), expired
// deadlines are dropped before scheduling, disconnected clients are
// evicted between iterations, and Shutdown drains in-flight work before
// joining the dispatcher goroutines.
type Server struct {
	engine *core.Engine
	cache  *ResponseCache
	queue  *Queue

	classify *classifyDispatcher
	gen      *genDispatcher // nil unless generation is enabled

	// root is the server's lifetime context: cancelled on abort, checked
	// by dispatchers between batches and decode iterations.
	root      context.Context
	abortRoot context.CancelFunc
	abortOnce sync.Once
	wg        sync.WaitGroup

	nextID atomic.Int64

	served       atomic.Int64
	batchesRun   atomic.Int64
	requestsSeen atomic.Int64

	// Job-lifecycle accounting for the unified admission path.
	jobsRejected  atomic.Int64 // refused with 429 at the full queue
	jobsExpired   atomic.Int64 // dropped past deadline before (or at) scheduling
	jobsCancelled atomic.Int64 // dropped because the client went away
	jobsShedSLO   atomic.Int64 // refused with 504 by the SLO budget controller

	// slo is the per-priority-class deadline-miss budget controller. Owned
	// when ServerConfig sets a budget; injected (shared across replicas) by
	// the Router via setSLORecorder. Every deadline miss this server drops
	// is charged to it; admission sheds only at the front door that owns it.
	slo atomic.Pointer[sloController]
	// sloFrontDoor is true when this server owns the shed decision (it is
	// not behind a Router). The Router's injection clears it.
	sloFrontDoor atomic.Bool

	// completions counts every job that left the server after admission —
	// classify results, finished generation streams, and drops/failures on
	// either path. The drain meter differentiates it into the recent drain
	// rate, the denominator of the load-derived Retry-After hint a 429
	// carries.
	completions atomic.Int64
	drain       drainMeter

	// tokensProcessed counts the real tokens of every executed classify
	// batch — all the rows the packed engine computes.
	tokensProcessed atomic.Int64
}

// ServerConfig configures NewServer — what the functional-options front
// door (turbo.Serve / turbo.NewRuntime) compiles down to.
type ServerConfig struct {
	Engine    *core.Engine
	Scheduler sched.Scheduler // nil: DP over a warmed-up cost model is recommended
	MaxBatch  int
	CacheSize int // 0 disables the response cache
	// BatchWindow enables the lazy trigger strategy: after the first
	// request arrives, wait up to this long for companions before
	// scheduling (a full batch fires immediately). Zero means hungry.
	BatchWindow time.Duration
	// QueueDepth bounds the shared admission queue; submissions beyond it
	// are refused with 429 (default DefaultQueueDepth).
	QueueDepth int

	// GenEngine enables the /v1/generate continuous-batching path.
	GenEngine *core.GenEngine
	// GenMaxBatch caps concurrent decode sequences (default: MaxBatch).
	GenMaxBatch int
	// GenDefaultMaxNew is the token budget used when a request does not
	// set max_new_tokens (default 32).
	GenDefaultMaxNew int

	// SLOBudget enables per-priority-class overload control: once a class
	// accumulates this many deadline misses inside SLOWindow, new jobs of
	// that class are shed with 504 at admission until enough misses age
	// out. Zero disables shedding.
	SLOBudget int
	// SLOWindow is the sliding window the miss budget is counted over
	// (default DefaultSLOWindow).
	SLOWindow time.Duration
}

// NewServer builds the serving framework and starts its dispatchers.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serving: engine required")
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("serving: scheduler required")
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 8
	}
	s := &Server{
		engine: cfg.Engine,
		queue:  NewQueue(cfg.QueueDepth),
	}
	s.root, s.abortRoot = context.WithCancel(context.Background()) //turbovet:allow ctxflow -- the server's one process-lifetime root; Close/Shutdown cancel it
	if cfg.CacheSize > 0 {
		s.cache = NewResponseCache(cfg.CacheSize)
	}
	if cfg.SLOBudget > 0 {
		s.slo.Store(newSLOController(cfg.SLOBudget, cfg.SLOWindow))
		s.sloFrontDoor.Store(true)
	}
	s.classify = &classifyDispatcher{
		srv:         s,
		scheduler:   cfg.Scheduler,
		maxBatch:    cfg.MaxBatch,
		batchWindow: cfg.BatchWindow,
	}
	s.start(s.classify)
	if cfg.GenEngine != nil {
		genBatch := cfg.GenMaxBatch
		if genBatch < 1 {
			genBatch = cfg.MaxBatch
		}
		s.gen = newGenDispatcher(s, cfg.GenEngine, genBatch, cfg.GenDefaultMaxNew)
		s.start(s.gen)
	}
	return s, nil
}

// start runs a dispatcher against the shared admission queue on its own
// goroutine, tracked so Close/Shutdown can join it.
func (s *Server) start(d Dispatcher) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		d.Run(s.queue)
	}()
}

// Shutdown gracefully stops the server: admission stops immediately
// (further submissions fail with ErrServerClosed → 503), everything
// already admitted — queued jobs, in-flight batches, running generations —
// is served to completion, and the dispatcher goroutines are joined. If
// ctx ends first, the remaining work is aborted (queued jobs fail with
// ErrServerClosed, running generations are evicted) and ctx.Err() is
// returned after the — then prompt — join.
func (s *Server) Shutdown(ctx context.Context) error {
	s.queue.drain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.abort()
		<-done
		return ctx.Err()
	}
}

// Close aborts the server: queued jobs are failed, running generations
// evicted, and the dispatcher goroutines joined before returning — no
// worker outlives Close.
func (s *Server) Close() {
	s.abort()
	s.wg.Wait()
}

// abort fails everything still queued and cancels the root context so
// dispatchers stop at their next iteration boundary.
func (s *Server) abort() {
	s.abortOnce.Do(func() {
		for _, j := range s.queue.close() {
			j.fail(ErrServerClosed)
		}
		s.abortRoot()
	})
}

// countDrop attributes a dropped job to the expired or cancelled counter.
// A deadline miss is also charged to the job's priority class in the SLO
// budget controller (when one is attached) — the signal that eventually
// closes admission for the class.
func (s *Server) countDrop(j *Job, err error) {
	if errors.Is(err, ErrDeadlineExceeded) {
		s.jobsExpired.Add(1)
		if c := s.slo.Load(); c != nil {
			c.recordMiss(j.Priority, time.Now())
		}
	} else {
		s.jobsCancelled.Add(1)
	}
	s.completions.Add(1)
}

// setSLORecorder attaches a shared (router-owned) budget controller: this
// replica's deadline misses feed it, but the shed decision stays at the
// router's front door, so sloFrontDoor is cleared.
func (s *Server) setSLORecorder(c *sloController) {
	s.slo.Store(c)
	s.sloFrontDoor.Store(false)
}

// shedSLO refuses the request with 504 when the class's miss budget is
// exhausted, carrying a Retry-After derived from the budget window (the
// moment admission reopens), and reports whether it shed.
func (s *Server) shedSLO(w http.ResponseWriter, priority int) bool {
	c := s.slo.Load()
	if c == nil || !s.sloFrontDoor.Load() {
		return false
	}
	retry, shed := c.shed(priority, time.Now())
	if !shed {
		return false
	}
	s.jobsShedSLO.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	httpError(w, http.StatusGatewayTimeout, ErrSLOShed.Error())
	return true
}

// drainMeter measures the server's recent job-completion rate by sampling
// a monotone completion counter over sliding windows. It answers "how fast
// is the backlog shrinking right now", the denominator of the Retry-After
// hint — a cumulative average would stay optimistic long after the server
// stalled.
type drainMeter struct {
	mu       sync.Mutex
	start    time.Time // current window start
	base     int64     // completions at window start
	rate     float64   // jobs/sec over the last closed window
	measured bool      // at least one full window has closed
}

// drainWindow is how long a measurement window lasts before the rate is
// recomputed from it; an interval of drainStale or more means the meter
// simply was not consulted (observe only runs on the 429 path) — a
// quiet-then-bursty server, not a wedged one — so the stale interval is
// discarded instead of measured as a near-zero rate.
const (
	drainWindow = 250 * time.Millisecond
	drainStale  = 10 * drainWindow
)

// observe feeds the meter the current completion count and returns the
// most recently measured drain rate. measured stays false until a full,
// fresh window has closed — a cold (or staled-out) meter is "unknown",
// which is NOT the same as a measured rate of zero (a wedged server).
func (m *drainMeter) observe(now time.Time, completed int64) (rate float64, measured bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dt := now.Sub(m.start)
	switch {
	case m.start.IsZero(), dt >= drainStale:
		m.start, m.base = now, completed
		m.rate, m.measured = 0, false
	case dt >= drainWindow:
		m.rate = float64(completed-m.base) / dt.Seconds()
		m.measured = true
		m.start, m.base = now, completed
	}
	return m.rate, m.measured
}

// Retry-After hint bounds: never below one second (the old hardcoded
// hint is the floor), never above a minute (past that the client should
// just poll), and a fallback drain rate for the windows before any
// completion has been observed.
const (
	minRetryAfter    = 1
	maxRetryAfter    = 60
	fallbackDrainPer = 8.0 // jobs/sec assumed while the meter is cold
)

// retryAfterHint derives the Retry-After seconds a 429 carries: the time
// to drain the current queue depth at the observed completion rate,
// clamped to [minRetryAfter, maxRetryAfter]. Deeper queues and slower
// drains both push the hint up. A cold meter (nothing measured yet) falls
// back to a fixed assumed rate so the hint stays monotone in depth; a
// MEASURED rate of ~zero is the opposite case — a wedged server — and
// hints the ceiling rather than pretending work is draining.
func retryAfterHint(depth int, ratePerSec float64, measured bool) int {
	if depth < 1 {
		depth = 1
	}
	if !measured {
		ratePerSec = fallbackDrainPer
	} else if ratePerSec <= 0 {
		return maxRetryAfter
	}
	hint := int(math.Ceil(float64(depth) / ratePerSec))
	if hint < minRetryAfter {
		return minRetryAfter
	}
	if hint > maxRetryAfter {
		return maxRetryAfter
	}
	return hint
}

// retryAfter computes the current backpressure hint for this server.
func (s *Server) retryAfter() int {
	rate, measured := s.drain.observe(time.Now(), s.completions.Load())
	return retryAfterHint(s.queue.Depth(), rate, measured)
}

// secs converts a wall-clock time to the float seconds the schedulers use.
func secs(t time.Time) float64 {
	if t.IsZero() {
		return 0
	}
	return float64(t.UnixNano()) / 1e9
}

// classifyDispatcher is the DP-batched classification path behind the
// admission queue: it takes every queued classify job, optionally lingers
// for the lazy batch window, filters out jobs that expired or whose client
// vanished while queued, and partitions the survivors with the batch
// scheduler (Algorithm 2), executing batch by batch.
type classifyDispatcher struct {
	srv         *Server
	scheduler   sched.Scheduler
	maxBatch    int
	batchWindow time.Duration
}

// Kind implements Dispatcher.
func (d *classifyDispatcher) Kind() JobKind { return JobClassify }

// Run implements Dispatcher.
func (d *classifyDispatcher) Run(q *Queue) {
	root := d.srv.root
	for {
		jobs, ok := q.take(JobClassify, true)
		if !ok {
			return
		}

		// Lazy strategy: give companions a window to arrive, unless a full
		// batch is already waiting (an abort cuts the linger short). The two
		// takes are each priority-ordered but their concatenation is not, so
		// the merged set is re-sorted — without this, a high-priority job
		// arriving during the window would run behind the first take's
		// low-priority work.
		if d.batchWindow > 0 && len(jobs) < d.maxBatch {
			timer := time.NewTimer(d.batchWindow)
			select {
			case <-timer.C:
			case <-root.Done():
				timer.Stop()
			}
			more, _ := q.take(JobClassify, false)
			jobs = append(jobs, more...)
			sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Priority > jobs[j].Priority })
		}

		// Deadline and cancellation are enforced before scheduling: an
		// expired job is failed (504) and a job whose client vanished is
		// dropped, so neither occupies a slot in any batch.
		now := time.Now()
		reqs := make([]*sched.Request, 0, len(jobs))
		for _, j := range jobs {
			if err := j.dropErr(now); err != nil {
				d.srv.countDrop(j, err)
				j.fail(err)
				continue
			}
			reqs = append(reqs, &sched.Request{
				ID:       j.ID,
				Length:   len(j.Tokens),
				Arrival:  secs(j.Arrival),
				Deadline: secs(j.Deadline),
				Priority: j.Priority,
				Payload:  j,
			})
		}
		if len(reqs) == 0 {
			continue
		}
		for _, b := range d.scheduler.Schedule(reqs) {
			d.runBatch(b)
		}
	}
}

// runBatch executes one scheduled batch, re-checking each member's
// lifecycle right before the engine runs (a client can vanish between
// scheduling and execution).
func (d *classifyDispatcher) runBatch(b sched.Batch) {
	s := d.srv
	now := time.Now()
	jobs := make([]*Job, 0, b.Size())
	tokens := make([][]int, 0, b.Size())
	total := 0
	for _, r := range b.Requests {
		j := r.Payload.(*Job)
		if err := j.dropErr(now); err != nil {
			s.countDrop(j, err)
			j.fail(err)
			continue
		}
		jobs = append(jobs, j)
		tokens = append(tokens, j.Tokens)
		total += len(j.Tokens)
	}
	if len(jobs) == 0 {
		return
	}
	s.batchesRun.Add(1)
	s.tokensProcessed.Add(int64(total))
	classes, err := s.engine.Classify(s.root, tokens)
	for i, j := range jobs {
		s.completions.Add(1)
		if err != nil {
			j.fail(err)
			continue
		}
		s.served.Add(1)
		j.result <- jobResult{class: classes[i], batchSize: len(jobs)}
	}
}

// submit builds a job from an accepted HTTP request and offers it to the
// shared admission queue, mapping refusals to their lifecycle errors. The
// optional configure hooks run on the job before it is offered — the
// hand-off paths use them to set prefill-only / snapshot state while the
// job is still exclusively owned by this goroutine.
func (s *Server) submit(kind JobKind, tokens []int, maxNew, priority int, deadline time.Time, parent context.Context, configure ...func(*Job)) (*Job, error) {
	if parent == nil {
		// A job submitted without a request context still hangs off the
		// server's root, so Close/Shutdown aborts it — it must never be
		// parented to an uncancellable Background root.
		parent = s.root
	}
	j := newJob(s.nextID.Add(1), kind, tokens, parent, deadline)
	j.MaxNew = maxNew
	j.Priority = priority
	switch kind {
	case JobClassify:
		j.result = make(chan jobResult, 1)
	case JobGenerate:
		j.events = make(chan genEvent, maxNew+2)
	}
	for _, fn := range configure {
		fn(j)
	}
	if err := s.queue.Submit(j); err != nil {
		j.Cancel()
		if errors.Is(err, ErrQueueFull) {
			s.jobsRejected.Add(1)
		}
		return nil, err
	}
	return j, nil
}

// classifyRequest is the POST /v1/classify body.
type classifyRequest struct {
	Text string `json:"text"`
	// DeadlineMS is an optional per-job deadline in milliseconds from
	// arrival; a job still unscheduled past it is dropped with 504.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Priority admits higher values first within a kind (ties FCFS).
	Priority int `json:"priority,omitempty"`
}

// classifyResponse is the reply.
type classifyResponse struct {
	Class     int     `json:"class"`
	Cached    bool    `json:"cached"`
	BatchSize int     `json:"batch_size"`
	LatencyMS float64 `json:"latency_ms"`
}

// errorResponse is the structured error body every endpoint returns.
type errorResponse struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// httpError writes a structured JSON error with the given status.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: msg, Code: code})
}

// methodNotAllowed rejects a wrong-method request with 405 and the Allow
// header, per RFC 9110.
func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	httpError(w, http.StatusMethodNotAllowed, allow+" required")
}

// jobErrorStatus maps a job lifecycle error onto its HTTP status.
func jobErrorStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrServerClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrSLOShed):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeJobError maps a lifecycle error to its status and body. A 429
// carries a Retry-After hint derived from the server's current queue depth
// and recent drain rate — a deeper or slower-draining queue tells the
// client to back off longer, instead of the old constant "1".
func (s *Server) writeJobError(w http.ResponseWriter, err error) {
	code := jobErrorStatus(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
	}
	httpError(w, code, err.Error())
}

// statsResponse is the GET /v1/stats reply. Each field's agg tag says how a
// Router folds it over replicas (aggregateStats): counters and instantaneous
// totals across devices sum, a per-replica peak or constant takes the max,
// and a flag is or-ed.
type statsResponse struct {
	Served     int64 `json:"served" agg:"sum"`
	Requests   int64 `json:"requests" agg:"sum"`
	BatchesRun int64 `json:"batches_run" agg:"sum"`
	CacheHits  int64 `json:"cache_hits" agg:"sum"`
	CacheMiss  int64 `json:"cache_misses" agg:"sum"`

	// Job-lifecycle counters for the unified admission queue: its current
	// depth, submissions refused at the full queue (429), jobs dropped past
	// their deadline, and jobs dropped because the client went away.
	QueueDepth    int64 `json:"queue_depth" agg:"sum"`
	JobsRejected  int64 `json:"jobs_rejected" agg:"sum"`
	JobsExpired   int64 `json:"jobs_expired" agg:"sum"`
	JobsCancelled int64 `json:"jobs_cancelled" agg:"sum"`
	JobsShedSLO   int64 `json:"jobs_shed_slo" agg:"sum"`

	// Drain-meter state: the recent job-completion rate (jobs/sec) and
	// whether a full measurement window has closed — the signals the
	// autoscaler samples (a MEASURED zero with queued work is a wedged
	// replica).
	DrainRate     float64 `json:"drain_rate_jobs_per_sec" agg:"sum"`
	DrainMeasured bool    `json:"drain_measured" agg:"or"`

	// Real tokens classified: every row the packed engine computed.
	TokensProcessed int64 `json:"tokens_processed" agg:"sum"`

	// Continuous-batching generation counters (zero unless enabled).
	GenRequests  int64 `json:"gen_requests" agg:"sum"`
	GenTokens    int64 `json:"gen_tokens" agg:"sum"`
	GenSteps     int64 `json:"gen_steps" agg:"sum"`
	GenPeakBatch int64 `json:"gen_peak_batch" agg:"max"`

	// Batched packed prefill: prompts encoded, encoder passes run (one per
	// admission batch — passes ≪ prompts when admission batches), prompt
	// tokens processed.
	GenPrefillPrompts int64 `json:"gen_prefill_prompts" agg:"sum"`
	GenPrefillPasses  int64 `json:"gen_prefill_passes" agg:"sum"`
	GenPrefillTokens  int64 `json:"gen_prefill_tokens" agg:"sum"`

	// KV accounting: the worst-case context (prompt plus budget) of the
	// running generations in tokens, and on the device the KV bytes held
	// (blocks and cross memories) against the bytes committed rows occupy.
	GenReservedTokens  int64 `json:"gen_reserved_tokens" agg:"sum"`
	GenKVReservedBytes int64 `json:"gen_kv_reserved_bytes" agg:"sum"`
	GenKVUsedBytes     int64 `json:"gen_kv_used_bytes" agg:"sum"`

	// FP16 fast-path accounting: whether the binary16 route serves this
	// replica, the cumulative fused kernel-chain launches it dispatched
	// (encoder qk_scaled_softmax/pv_transpose_back plus decode fused
	// attention), and the per-context-token KV cost — halved under fp16.
	FP16Enabled     bool  `json:"fp16_enabled" agg:"or"`
	FusedLaunches   int64 `json:"fused_launches" agg:"sum"`
	KVBytesPerToken int64 `json:"kv_bytes_per_token" agg:"max"`

	// Paged-KV accounting (zero without a generation engine): block-pool
	// occupancy, prefix-cache reuse, and preemptions — the shared-prefix
	// admission-density win made visible. KVBlocksUsed counts the blocks
	// running generations hold: retired prefix KV is scavenged on demand,
	// so — as at admission — it is free capacity, not decode pressure (the
	// autoscaler reads this gauge). KVBlocksShared counts blocks mapped by
	// two or more block tables at once.
	KVBlocksTotal  int64 `json:"kv_blocks_total" agg:"sum"`
	KVBlocksUsed   int64 `json:"kv_blocks_used" agg:"sum"`
	KVBlocksShared int64 `json:"kv_blocks_shared" agg:"sum"`
	PrefixHits     int64 `json:"prefix_hits" agg:"sum"`
	PrefixMisses   int64 `json:"prefix_misses" agg:"sum"`
	ReplayTokens   int64 `json:"prefix_replay_tokens" agg:"sum"`
	GenPreemptions int64 `json:"gen_preemptions" agg:"sum"`
}

// Handler returns the HTTP mux for the service.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/classify", s.handleClassify)
	mux.HandleFunc("/v1/generate", s.handleGenerate)
	mux.HandleFunc("/v1/stats", s.handleStats)
	return mux
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req classifyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Text == "" {
		httpError(w, http.StatusBadRequest, "body must be {\"text\": ...}")
		return
	}
	if s.shedSLO(w, req.Priority) {
		return
	}
	s.serveClassify(w, r, req)
}

// serveClassify runs one already-decoded classify request through this
// server: cache probe, admission, then the wait for the dispatcher's
// verdict. The Router front door decodes the body itself (it prices the
// request before picking a replica) and delegates here, so single-server
// and routed serving share one code path.
func (s *Server) serveClassify(w http.ResponseWriter, r *http.Request, req classifyRequest) {
	s.requestsSeen.Add(1)
	start := time.Now()

	key := cacheKey(req.Text)
	if s.cache != nil {
		if v, ok := s.cache.Get(key); ok {
			writeJSON(w, classifyResponse{
				Class:     v.(int),
				Cached:    true,
				LatencyMS: float64(time.Since(start)) / 1e6,
			})
			return
		}
	}

	var deadline time.Time
	if req.DeadlineMS > 0 {
		deadline = start.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	job, err := s.submit(JobClassify, Tokenize(req.Text, s.engine.Cfg.Vocab), 0, req.Priority, deadline, r.Context())
	if err != nil {
		s.writeJobError(w, err)
		return
	}
	defer job.Cancel()
	select {
	case res := <-job.result:
		if res.err != nil {
			s.writeJobError(w, res.err)
			return
		}
		if s.cache != nil {
			s.cache.Put(key, res.class)
		}
		writeJSON(w, classifyResponse{
			Class:     res.class,
			BatchSize: res.batchSize,
			LatencyMS: float64(time.Since(start)) / 1e6,
		})
	case <-r.Context().Done():
		// Client gone: the dispatcher drops the job at its next boundary.
		job.Cancel()
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, s.statsSnapshot())
}

// statsSnapshot collects this server's counters — the single-server
// /v1/stats body, and the per-replica building block the Router aggregates.
func (s *Server) statsSnapshot() statsResponse {
	var hits, misses int64
	if s.cache != nil {
		hits, misses = s.cache.Stats()
	}
	resp := statsResponse{
		Served:          s.served.Load(),
		Requests:        s.requestsSeen.Load(),
		BatchesRun:      s.batchesRun.Load(),
		CacheHits:       hits,
		CacheMiss:       misses,
		QueueDepth:      int64(s.queue.Depth()),
		JobsRejected:    s.jobsRejected.Load(),
		JobsExpired:     s.jobsExpired.Load(),
		JobsCancelled:   s.jobsCancelled.Load(),
		JobsShedSLO:     s.jobsShedSLO.Load(),
		TokensProcessed: s.tokensProcessed.Load(),
	}
	resp.DrainRate, resp.DrainMeasured = s.drain.observe(time.Now(), s.completions.Load())
	resp.FP16Enabled = s.engine.FP16Enabled()
	resp.FusedLaunches = s.engine.FusedLaunches()
	if s.gen != nil {
		resp.FP16Enabled = resp.FP16Enabled || s.gen.engine.FP16Enabled()
		resp.FusedLaunches += s.gen.engine.FusedLaunches()
		resp.KVBytesPerToken = s.gen.engine.KVBytesPerToken()
		resp.GenRequests = s.gen.requests.Load()
		resp.GenTokens = s.gen.tokensOut.Load()
		resp.GenSteps = s.gen.stepsRun.Load()
		resp.GenPeakBatch = s.gen.peakBatch.Load()
		resp.GenPrefillPrompts, resp.GenPrefillPasses, resp.GenPrefillTokens = s.gen.engine.PrefillCounters()
		resp.GenReservedTokens = int64(s.gen.sched.ReservedTokens())
		mem := s.gen.engine.MemoryStats()
		resp.GenKVReservedBytes = mem.KVReservedBytes
		resp.GenKVUsedBytes = mem.KVUsedBytes
		gen := s.gen.engine.Generator
		ps := gen.BlockPool().Stats()
		resp.KVBlocksTotal = int64(ps.CapBlocks)
		pf := gen.PrefixStats()
		resp.KVBlocksUsed = int64(ps.UsedBlocks - pf.KVBlocks)
		resp.KVBlocksShared = int64(ps.SharedBlocks)
		resp.PrefixHits = pf.Hits
		resp.PrefixMisses = pf.Misses
		resp.ReplayTokens = pf.ReplayToks
		resp.GenPreemptions = s.gen.sched.Preemptions()
	}
	return resp
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

func cacheKey(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}
