package turbo

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/serving"
)

// runtimeConfig is the resolved form of the functional options: engine
// construction knobs plus everything the serving framework needs. It is
// internal — callers only ever touch Option values.
type runtimeConfig struct {
	engine core.Options

	// Serving.
	scheduler        Scheduler
	schedulerFactory func() Scheduler
	maxBatch         int
	cacheSize        int
	batchWindow      time.Duration
	queueDepth       int

	// Multi-replica routing.
	replicas  int
	policy    serving.BalancePolicy
	routeCost *sched.TokenCost
	roles     []serving.ReplicaRole

	// Elastic autoscaling and SLO overload control.
	autoMin, autoMax int
	autoTick         time.Duration
	sloBudget        int
	sloWindow        time.Duration

	// Generation.
	genDecCfg        *Config
	genMaxBatch      int
	genTokenBudget   int
	genDefaultMaxNew int
}

// Option configures NewRuntime and Serve — the functional-options front
// door that replaces positional core.Options / ServerConfig wiring.
type Option func(*runtimeConfig)

// WithSeed sets the deterministic weight-initialisation seed.
func WithSeed(seed int64) Option { return func(c *runtimeConfig) { c.engine.Seed = seed } }

// WithClasses attaches an n-way classification head.
func WithClasses(n int) Option { return func(c *runtimeConfig) { c.engine.Classes = n } }

// WithAllocator selects the memory manager (default: the paper's
// sequence-length-aware turbo allocator, Algorithm 1).
func WithAllocator(kind AllocatorKind) Option {
	return func(c *runtimeConfig) { c.engine.Allocator = kind }
}

// WithPacked selects the zero-padding execution path: mixed-length batches
// run as ragged [totalTokens, hidden] blocks, no FLOP is ever spent on a
// padding row, and no mask exists.
func WithPacked() Option { return func(c *runtimeConfig) { c.engine.Packed = true } }

// WithUnfused executes the unfused Fig. 3a graph instead of the fused
// runtime (for comparisons).
func WithUnfused() Option { return func(c *runtimeConfig) { c.engine.Unfused = true } }

// WithTensorCore emulates the Turbo-TC numeric path: FP16 GEMM operands
// with FP32 accumulation.
func WithTensorCore() Option { return func(c *runtimeConfig) { c.engine.TensorCore = true } }

// WithFP16 switches the engine onto the binary16 fast path: fp16-storage
// GEMMs end to end (activations and weights rounded through binary16, fp32
// accumulation), binary16 KV storage at half the bytes per token, and the
// fused launch chains on the packed attention core. Numerics are
// bit-identical to WithTensorCore on the encoder; outputs stay within the
// documented tolerance of the fp32 route (DESIGN.md §2d). fp32 remains the
// default.
func WithFP16() Option { return func(c *runtimeConfig) { c.engine.FP16 = true } }

// WithGeneration enables the continuous-batching generation path with the
// given decoder configuration (the /v1/generate endpoint on a served
// runtime).
func WithGeneration(decCfg Config) Option {
	return func(c *runtimeConfig) { c.genDecCfg = &decCfg }
}

// WithPagedKV pages the generation path's KV cache through a fixed-size
// block pool (blocks = pool capacity; 0 derives a default from the decoder
// geometry): admission gates on actual block consumption instead of
// worst-case token reservations, pool pressure preempts the lowest-priority
// running generation (losslessly — it is requeued and recomputed), and
// retired generations are prefix-cached so identical prompts replay —
// encoder pass skipped, tokens served from cache, block tables shared
// copy-on-write. A NewRuntime option (it shapes the engine).
func WithPagedKV(blocks int) Option {
	return func(c *runtimeConfig) {
		c.engine.PagedKV = true
		c.engine.PagedKVBlocks = blocks
	}
}

// WithPrefixCache caps how many retired generations the paged-KV prefix
// cache keeps for prompt-identical reuse (default 64). Only meaningful with
// WithPagedKV.
func WithPrefixCache(entries int) Option {
	return func(c *runtimeConfig) { c.engine.PrefixEntries = entries }
}

// WithGenMaxBatch caps concurrent decode sequences (default: the classify
// max batch).
func WithGenMaxBatch(n int) Option { return func(c *runtimeConfig) { c.genMaxBatch = n } }

// WithGenTokenBudget caps the summed worst-case context length across
// running generations — the KV-footprint admission guard (0 = unlimited).
func WithGenTokenBudget(n int) Option { return func(c *runtimeConfig) { c.genTokenBudget = n } }

// WithGenDefaultMaxNew sets the token budget used when a generation
// request does not specify max_new_tokens (default 32).
func WithGenDefaultMaxNew(n int) Option { return func(c *runtimeConfig) { c.genDefaultMaxNew = n } }

// WithScheduler sets the batch scheduler for the classify path. Without
// it, Serve falls back to the DP scheduler over a crude linear cost —
// fine for demos; production servers should warm up a real cost model —
// WarmupCost's dictionary for the padded engine, its Fit (WarmupTokenCost)
// for the packed one — and pass it here.
func WithScheduler(s Scheduler) Option { return func(c *runtimeConfig) { c.scheduler = s } }

// WithMaxBatch caps the classify batch size (default 8).
func WithMaxBatch(n int) Option { return func(c *runtimeConfig) { c.maxBatch = n } }

// WithCache enables the response cache with the given entry count.
func WithCache(entries int) Option { return func(c *runtimeConfig) { c.cacheSize = entries } }

// WithBatchWindow enables the lazy trigger strategy: after the first
// request arrives, wait up to d for companions before scheduling (a full
// batch fires immediately). Zero means the hungry strategy.
func WithBatchWindow(d time.Duration) Option { return func(c *runtimeConfig) { c.batchWindow = d } }

// WithQueueDepth bounds the unified admission queue; submissions beyond
// it are refused with 429 + Retry-After (default serving.DefaultQueueDepth).
// With replicas, each replica gets its own queue of this depth.
func WithQueueDepth(n int) Option { return func(c *runtimeConfig) { c.queueDepth = n } }

// WithReplicas serves through n independent replicas — each its own
// engine (identical weights), allocator device, admission queue, and
// dispatcher pair — behind one routed front door (serving.Router). n ≤ 1
// keeps the single-server fast path. See WithBalancePolicy for how jobs
// spread.
func WithReplicas(n int) Option { return func(c *runtimeConfig) { c.replicas = n } }

// WithBalancePolicy selects how a replicated front door routes jobs:
// RoundRobin (default), LeastQueue, or TokenCostRouting (least outstanding
// priced work — long prompts spread by the device time they will claim).
func WithBalancePolicy(p BalancePolicy) Option { return func(c *runtimeConfig) { c.policy = p } }

// WithRouteCost sets the request price TokenCostRouting charges replicas
// with, and that a role-tagged front door splits into prefill and decode
// phases (e.g. a WarmupTokenCost fit, or a saved dictionary's Fit).
// Default: one unit per token (sched.TokenCounts).
func WithRouteCost(c *TokenCost) Option { return func(rc *runtimeConfig) { rc.routeCost = c } }

// WithReplicaRoles tags each replica of a replicated front door for
// prefill/decode disaggregation: one role per replica, in order. A
// generation then prefills on a prefill replica, its KV is exported,
// migrated, and imported byte-for-byte onto a decode replica, and the
// stream decodes there — unless a mixed replica is cheaper once the
// migration transfer is priced in (short prompts stay put). Classify
// traffic avoids decode replicas. Requires WithReplicas(n) with n ==
// len(roles); the role set must contain a mixed replica or at least one
// prefill and one decode.
func WithReplicaRoles(roles ...ReplicaRole) Option {
	return func(c *runtimeConfig) { c.roles = roles }
}

// WithSchedulerFactory builds one batch scheduler per replica — required
// instead of WithScheduler when the scheduler is stateful and must not be
// shared across replicas. (The built-in schedulers are stateless, so
// WithScheduler's single shared instance is fine for them.)
func WithSchedulerFactory(f func() Scheduler) Option {
	return func(c *runtimeConfig) { c.schedulerFactory = f }
}

// WithAutoscale serves through an ELASTIC replica fleet: the front door is
// a router that starts at min replicas and a background control loop
// (internal/autoscale) samples its aggregated load signals — queue depth,
// drain rate, paged-KV occupancy, reserved decode tokens — every tick and
// attaches or retires replicas between min and max. Scale-up attaches a
// warm spare built in the background from the same resolved configuration;
// scale-down drains the least-loaded replica to exactly zero before it
// stops billing (no accepted job is ever lost). Hysteresis — separate
// up/down thresholds, consecutive-tick streaks, cool-down — makes flapping
// impossible by construction. Incompatible with WithReplicas and
// WithReplicaRoles (an elastic fleet sizes itself, and role-tagged fleets
// are fixed-topology).
func WithAutoscale(min, max int) Option {
	return func(c *runtimeConfig) {
		c.autoMin = min
		c.autoMax = max
	}
}

// WithAutoscaleTick sets the autoscale control-loop sampling period
// (default 250ms, the drain meter's window). Only meaningful with
// WithAutoscale.
func WithAutoscaleTick(d time.Duration) Option {
	return func(c *runtimeConfig) { c.autoTick = d }
}

// WithSLOBudget enables per-priority-class overload control at admission:
// when a priority class accumulates budget deadline misses inside the
// sliding window (fleet-wide — a routed front door counts misses across
// every replica), further jobs of that class are shed with 504 BEFORE any
// work is done, with a Retry-After derived from when the class's oldest
// counted miss ages out of the window. window ≤ 0 uses
// serving.DefaultSLOWindow.
func WithSLOBudget(budget int, window time.Duration) Option {
	return func(c *runtimeConfig) {
		c.sloBudget = budget
		c.sloWindow = window
	}
}

// Runtime is the assembled inference stack behind the unified API: the
// classify engine, optionally the generation engine, and the resolved
// configuration a Serve call turns into a live server.
type Runtime struct {
	Engine    *Engine
	GenEngine *GenEngine // nil unless WithGeneration was given

	modelCfg Config
	resolved runtimeConfig
}

// NewRuntime builds the inference runtime for cfg under the given options
// — the single entry point the quickstart's "three lines" now go through:
//
//	rt, _ := turbo.NewRuntime(turbo.BertBase(), turbo.WithClasses(2))
//	classes, _ := rt.Classify(ctx, [][]int{{101, 2023, 2003, 102}})
func NewRuntime(cfg Config, opts ...Option) (*Runtime, error) {
	rc := runtimeConfig{}
	for _, o := range opts {
		o(&rc)
	}
	engine, err := core.NewEngine(cfg, rc.engine)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{Engine: engine, modelCfg: cfg, resolved: rc}
	if rc.genDecCfg != nil {
		gen, err := core.NewGenEngine(cfg, *rc.genDecCfg, rc.engine)
		if err != nil {
			return nil, err
		}
		rt.GenEngine = gen
	}
	return rt, nil
}

// Classify runs the full pipeline under ctx and returns one class per
// request; a cancelled context stops the pipeline at the next stage
// boundary.
func (rt *Runtime) Classify(ctx context.Context, batchTokens [][]int) ([]int, error) {
	return rt.Engine.Classify(ctx, batchTokens)
}

// Serve starts the serving framework over this runtime. Extra options
// override the ones given to NewRuntime (useful for wiring a scheduler
// after a warm-up pass over rt.Engine):
//
//	rt, _ := turbo.NewRuntime(cfg, turbo.WithClasses(4))
//	cost := turbo.WarmupCost(price, maxLen, maxBatch, stride) // price via rt.Engine
//	srv, _ := rt.Serve(turbo.WithScheduler(turbo.NewDPScheduler(cost, 8)))
//
// With WithReplicas(n>1) the returned Service is a serving.Router over n
// replicas: the runtime's own engines serve replica 0 and fresh engines
// with identical weights are built for the rest, so every replica answers
// identically and the router is free to place any job anywhere.
func (rt *Runtime) Serve(opts ...Option) (Service, error) {
	rc := rt.resolved
	for _, o := range opts {
		o(&rc)
	}
	if rc.genDecCfg != nil && rt.GenEngine == nil {
		return nil, fmt.Errorf("turbo: WithGeneration must be given to NewRuntime, not Serve (the runtime owns the engines)")
	}
	// Engine-shaping options are NewRuntime's: the runtime's engines are
	// already built, so a Serve-time WithSeed/WithPacked/... could at best
	// apply to the extra replicas — giving replicas different weights and
	// letting routing change answers. Refuse rather than silently diverge.
	if rc.engine != rt.resolved.engine {
		return nil, fmt.Errorf("turbo: engine options (WithSeed, WithPacked, WithClasses, ...) must be given to NewRuntime, not Serve (the runtime owns the engines)")
	}
	if rc.genDecCfg != nil && rt.resolved.genDecCfg != nil && *rc.genDecCfg != *rt.resolved.genDecCfg {
		return nil, fmt.Errorf("turbo: the generation decoder config must be given to NewRuntime, not changed at Serve")
	}
	newScheduler := func() Scheduler {
		if rc.schedulerFactory != nil {
			return rc.schedulerFactory()
		}
		if rc.scheduler != nil {
			// The built-in schedulers are stateless; a stateful custom one
			// must come through WithSchedulerFactory instead.
			return rc.scheduler
		}
		// Demo fallback: linear cost, no warm-up. Real deployments warm up
		// a measured cost model and pass WithScheduler.
		maxBatch := rc.maxBatch
		if maxBatch < 1 {
			maxBatch = 8
		}
		return NewDPScheduler(sched.CostFunc(func(l, b int) time.Duration {
			return time.Duration(l*b) * time.Microsecond
		}), maxBatch)
	}

	replicas := rc.replicas
	if replicas < 1 {
		replicas = 1
	}
	elastic := rc.autoMin != 0 || rc.autoMax != 0
	var ctrl *autoscale.Controller
	if elastic {
		if len(rc.roles) > 0 {
			return nil, fmt.Errorf("turbo: WithAutoscale is incompatible with WithReplicaRoles (a role-tagged fleet is fixed-topology)")
		}
		if rc.replicas > 0 {
			return nil, fmt.Errorf("turbo: WithAutoscale is incompatible with WithReplicas (the controller sizes the fleet; pass the bounds to WithAutoscale)")
		}
		var err error
		if ctrl, err = autoscale.New(autoscale.Config{Min: rc.autoMin, Max: rc.autoMax, Tick: rc.autoTick}); err != nil {
			return nil, err
		}
		replicas = rc.autoMin
	}
	if n := len(rc.roles); n > 0 && n != replicas {
		return nil, fmt.Errorf("turbo: WithReplicaRoles got %d roles for %d replicas (pass WithReplicas(%d), one role per replica)", n, replicas, n)
	}
	if len(rc.roles) > 0 && replicas == 1 {
		return nil, fmt.Errorf("turbo: WithReplicaRoles needs WithReplicas(n) with n > 1 — one replica has nothing to hand off to")
	}
	// An elastic fleet is routed even at Min=1: replicas come and go behind
	// the same front door.
	routed := replicas > 1 || elastic

	// buildServer assembles one serving replica over already-built engines.
	// A routed fleet carries the SLO budget on the ROUTER (one shared
	// fleet-wide controller, front door at the router), not per replica.
	buildServer := func(engine *Engine, genEngine *GenEngine) (*serving.Server, error) {
		cfg := serving.ServerConfig{
			Engine:      engine,
			Scheduler:   newScheduler(),
			MaxBatch:    rc.maxBatch,
			CacheSize:   rc.cacheSize,
			BatchWindow: rc.batchWindow,
			QueueDepth:  rc.queueDepth,
		}
		if !routed {
			cfg.SLOBudget = rc.sloBudget
			cfg.SLOWindow = rc.sloWindow
		}
		if genEngine != nil {
			cfg.GenEngine = genEngine
			cfg.GenMaxBatch = rc.genMaxBatch
			cfg.GenTokenBudget = rc.genTokenBudget
			cfg.GenDefaultMaxNew = rc.genDefaultMaxNew
		}
		return serving.NewServer(cfg)
	}
	// buildReplica builds a replica from scratch — fresh engines with the
	// NewRuntime-time engine options (rt.resolved), NOT the Serve-time
	// overrides: replica 0 is rt.Engine, which those overrides cannot
	// rebuild, so letting them shape later replicas would give replicas
	// different weights and let routing change answers. Serve-time options
	// may only adjust the serving layer. The autoscaler reuses this closure
	// as its warm-spare factory: every replica it ever attaches is built
	// exactly like the seed fleet.
	buildReplica := func() (*serving.Server, error) {
		engine, err := core.NewEngine(rt.modelCfg, rt.resolved.engine)
		if err != nil {
			return nil, err
		}
		var genEngine *GenEngine
		if rt.resolved.genDecCfg != nil {
			if genEngine, err = core.NewGenEngine(rt.modelCfg, *rt.resolved.genDecCfg, rt.resolved.engine); err != nil {
				return nil, err
			}
		}
		return buildServer(engine, genEngine)
	}

	servers := make([]*serving.Server, 0, replicas)
	fail := func(err error) (Service, error) {
		for _, s := range servers {
			s.Close()
		}
		return nil, err
	}
	for i := 0; i < replicas; i++ {
		var srv *serving.Server
		var err error
		if i == 0 {
			srv, err = buildServer(rt.Engine, rt.GenEngine)
		} else {
			srv, err = buildReplica()
		}
		if err != nil {
			return fail(err)
		}
		servers = append(servers, srv)
	}
	if !routed {
		// Single replica keeps the PR-4 fast path: no router in front.
		return servers[0], nil
	}
	router, err := serving.NewRouter(serving.RouterConfig{
		Policy:    rc.policy,
		Cost:      rc.routeCost,
		Roles:     rc.roles,
		SLOBudget: rc.sloBudget,
		SLOWindow: rc.sloWindow,
	}, servers...)
	if err != nil {
		return fail(err)
	}
	if !elastic {
		return router, nil
	}
	scaler := serving.NewRouterScaler(router, buildReplica)
	loopCtx, cancel := context.WithCancel(context.Background()) //turbovet:allow ctxflow -- the autoscale loop's service-lifetime root; elasticService.stop cancels it
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctrl.Run(loopCtx, scaler)
	}()
	return &elasticService{Router: router, scaler: scaler, cancel: cancel, done: done}, nil
}

// elasticService is the Service an autoscaled Serve returns: the routed
// front door plus its running control loop. Stopping the service stops the
// loop FIRST and joins it (so no scale action can race the drain), closes
// the warm spare, then stops the router.
type elasticService struct {
	*serving.Router
	scaler *serving.RouterScaler
	cancel context.CancelFunc
	done   chan struct{}
	stop   sync.Once
}

// stopLoop cancels the control loop, waits for it to exit, and releases
// the scaler's warm spare. Idempotent: Shutdown and Close may both run.
func (e *elasticService) stopLoop() {
	e.stop.Do(func() {
		e.cancel()
		<-e.done
		e.scaler.Close()
	})
}

// Shutdown stops the control loop, then gracefully drains the fleet.
func (e *elasticService) Shutdown(ctx context.Context) error {
	e.stopLoop()
	return e.Router.Shutdown(ctx)
}

// Close stops the control loop, then aborts the fleet.
func (e *elasticService) Close() {
	e.stopLoop()
	e.Router.Close()
}

// Serve builds a runtime for cfg and starts the serving framework in one
// call — the single front door for a served model. With WithGeneration,
// the decoder config must share the encoder's hidden size (scale them
// together):
//
//	enc := turbo.BertBase().Scaled(128, 4, 512, 4)
//	dec := turbo.Seq2SeqDecoder().Scaled(128, 4, 512, 4)
//	srv, err := turbo.Serve(enc,
//		turbo.WithClasses(2),
//		turbo.WithPacked(),
//		turbo.WithGeneration(dec),
//		turbo.WithQueueDepth(512))
//	if err != nil { ... }
//	defer srv.Shutdown(context.Background())
//	http.ListenAndServe(addr, srv.Handler())
//
// Add WithReplicas(n) (and optionally WithBalancePolicy /
// WithRouteCost) to serve through n independent replicas behind a
// token-cost-routed load balancer — same endpoints, aggregated stats.
func Serve(cfg Config, opts ...Option) (Service, error) {
	rt, err := NewRuntime(cfg, opts...)
	if err != nil {
		return nil, err
	}
	return rt.Serve()
}
