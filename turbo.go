// Package turbo is a from-scratch Go reproduction of "TurboTransformers:
// An Efficient GPU Serving System For Transformer Models" (PPoPP 2021).
//
// It exposes the system's three contributions behind one facade:
//
//   - a transformer inference runtime with kernel fusion and real
//     variable-length execution (Engine),
//   - the sequence-length-aware memory manager of Algorithm 1
//     (selected via WithAllocator),
//   - the sequence-length-aware DP batch scheduler of Algorithm 2 and the
//     serving framework around it (NewDPScheduler, Serve),
//
// plus the GPU latency model and benchmark harness that regenerate every
// table and figure of the paper's evaluation (Experiments, RunExperiment).
//
// Quickstart (the paper's §6.1 "three lines" equivalent):
//
//	rt, _ := turbo.NewRuntime(turbo.BertBase(), turbo.WithClasses(2))
//	classes, _ := rt.Classify(ctx, [][]int{{101, 2023, 2003, 102}})
//
// The single serving front door is Serve: one call builds the engines and
// starts the job-based serving framework (classify + generate through ONE
// bounded admission queue, context-aware end to end). Encoder and decoder
// must agree on hidden size, so scale them together:
//
//	enc := turbo.BertBase().Scaled(128, 4, 512, 4)
//	dec := turbo.Seq2SeqDecoder().Scaled(128, 4, 512, 4)
//	srv, err := turbo.Serve(enc,
//		turbo.WithClasses(2),
//		turbo.WithGeneration(dec))
//	if err != nil { ... }
//	defer srv.Shutdown(context.Background())
//	http.ListenAndServe(":8080", srv.Handler())
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package turbo

import (
	"context"
	"io"
	"net/http"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/sched"
	"repro/internal/serving"
)

// Re-exported model configurations (Table 3).
type Config = model.Config

// BertBase returns the BERT base configuration.
func BertBase() Config { return model.BertBase() }

// Seq2SeqDecoder returns the NMT decoder configuration.
func Seq2SeqDecoder() Config { return model.Seq2SeqDecoder() }

// Engine is the inference runtime (see internal/core).
type Engine = core.Engine

// AllocatorKind selects the memory manager (WithAllocator).
type AllocatorKind = core.AllocatorKind

// Allocator kinds for WithAllocator.
const (
	AllocTurbo   = core.AllocTurbo
	AllocGSOC    = core.AllocGSOC
	AllocCaching = core.AllocCaching
	AllocNaive   = core.AllocNaive
)

// Scheduling types (Algorithm 2 and baselines).
type (
	// Request is a queued inference request.
	Request = sched.Request
	// Batch is a scheduled execution batch.
	Batch = sched.Batch
	// Scheduler partitions queued requests into batches.
	Scheduler = sched.Scheduler
	// CostModel prices one execution batch by its Shape.
	CostModel = sched.CostModel
	// Shape is what a batch is priced on: its size, its longest member,
	// and its true token totals.
	Shape = sched.Shape
	// CostFunc adapts a padded (seqLen, batchSize) price to CostModel.
	CostFunc = sched.CostFunc
	// CachedCost is the warm-up-built cost dictionary.
	CachedCost = sched.CachedCost
	// TokenCost is the three-term token cost of the packed engine, fitted
	// from a dictionary (CachedCost.Fit); it also prices requests for
	// replica routing.
	TokenCost = sched.TokenCost
)

// NewDPScheduler returns the paper's DP batch scheduler over a cost model.
func NewDPScheduler(cost CostModel, maxBatch int) Scheduler {
	return &sched.DPScheduler{Cost: cost, MaxBatch: maxBatch}
}

// NewNaiveScheduler returns the pack-everything baseline.
func NewNaiveScheduler(cost CostModel, maxBatch int) Scheduler {
	return &sched.NaiveScheduler{Cost: cost, MaxBatch: maxBatch}
}

// NewNoBatchScheduler returns the serve-one-at-a-time baseline.
func NewNoBatchScheduler(cost CostModel) Scheduler {
	return &sched.NoBatchScheduler{Cost: cost}
}

// WarmupCost runs the §6.3 warm-up phase: it prices every (sampled length,
// batch size) combination with price and returns the interpolating
// dictionary Algorithm 2 consults.
func WarmupCost(price func(seqLen, batchSize int) time.Duration, maxLen, maxBatch, lenStride int) *CachedCost {
	return sched.BuildCachedCost(price, maxLen, maxBatch, lenStride)
}

// WarmupTokenCost runs the warm-up sweep and fits WarmupCost's dictionary
// to the three-term token cost (overhead + per-token + per-token²), so
// Algorithm 2 can price mixed-length batches by the work the packed
// (zero-padding) engine actually does.
func WarmupTokenCost(price func(seqLen, batchSize int) time.Duration, maxLen, maxBatch, lenStride int) *TokenCost {
	return WarmupCost(price, maxLen, maxBatch, lenStride).Fit()
}

// SaveCost persists a warm-up dictionary to disk; LoadCost restores it —
// the paper stores warm-up results "on disk or database ... and reloaded
// to memory when the serving module is restarted" (§5).
func SaveCost(c *CachedCost, path string) error { return c.SaveFile(path) }

// LoadCost restores a dictionary written by SaveCost.
func LoadCost(path string) (*CachedCost, error) { return sched.LoadCachedCostFile(path) }

// Serving framework.
type (
	// Server is the live HTTP serving framework: one bounded admission
	// queue in front of the DP-batched classify dispatcher and the
	// continuous-batching generation dispatcher, context-aware end to end.
	// Stop it with Shutdown (graceful drain) or Close (abort); both join
	// the dispatcher goroutines before returning.
	Server = serving.Server
	// Router is the multi-replica serving runtime: N independent Servers
	// behind one policy-routed front door with aggregated stats. Built by
	// Serve with WithReplicas(n>1), or directly with NewRouter.
	Router = serving.Router
	// RouterConfig configures NewRouter.
	RouterConfig = serving.RouterConfig
	// RouterStats is the aggregated /v1/stats body of a routed service.
	RouterStats = serving.RouterStats
	// BalancePolicy selects how a Router spreads jobs over replicas.
	BalancePolicy = serving.BalancePolicy
	// ReplicaRole tags a replica prefill/decode/mixed for disaggregated
	// routing (WithReplicaRoles).
	ReplicaRole = serving.ReplicaRole
)

// Balancing policies for WithBalancePolicy / RouterConfig.
const (
	// RoundRobin cycles through replicas regardless of load.
	RoundRobin = serving.RoundRobin
	// LeastQueue routes to the replica with the fewest unresolved jobs.
	LeastQueue = serving.LeastQueue
	// TokenCostRouting routes to the replica with the least outstanding
	// PRICED work (a TokenCost over prompt tokens + decode budget), so
	// long prompts spread by the device time they will claim.
	TokenCostRouting = serving.TokenCostRouting
)

// Replica roles for WithReplicaRoles / RouterConfig.Roles.
const (
	// RoleMixed serves whole sessions — prefill and decode on one replica.
	RoleMixed = serving.RoleMixed
	// RolePrefill runs packed prefill (and classify) and hands sessions
	// off before decode.
	RolePrefill = serving.RolePrefill
	// RoleDecode receives migrated KV and runs the ragged decode loop.
	RoleDecode = serving.RoleDecode
)

// ParseBalancePolicy maps "round-robin", "least-queue", or "token-cost"
// to its BalancePolicy (the -balance flag parser).
func ParseBalancePolicy(s string) (BalancePolicy, error) { return serving.ParseBalancePolicy(s) }

// ParseReplicaRoles parses a comma-separated role list like
// "prefill,decode,mixed" — the -roles flag parser, one entry per replica.
func ParseReplicaRoles(s string) ([]ReplicaRole, error) { return serving.ParseReplicaRoles(s) }

// NewRouter builds the multi-replica front door over identically
// configured, already-started servers. Most callers should use
// Serve(cfg, WithReplicas(n), ...) instead, which builds the replicas too.
func NewRouter(cfg RouterConfig, replicas ...*Server) (*Router, error) {
	return serving.NewRouter(cfg, replicas...)
}

// Service is the common surface of a single-replica *Server and a
// multi-replica *Router — what Serve and Runtime.Serve return: mount
// Handler, stop with Shutdown (graceful drain) or Close (abort).
type Service interface {
	Handler() http.Handler
	Shutdown(ctx context.Context) error
	Close()
}

// Job-lifecycle errors surfaced by the serving framework (mapped to HTTP
// 429 / 503 / 504 by the handlers).
var (
	// ErrQueueFull refuses a submission at the full admission queue.
	ErrQueueFull = serving.ErrQueueFull
	// ErrServerClosed refuses submissions once shutdown has begun.
	ErrServerClosed = serving.ErrServerClosed
	// ErrJobDeadlineExceeded fails jobs dropped past their deadline.
	ErrJobDeadlineExceeded = serving.ErrDeadlineExceeded
	// ErrSLOShed refuses a job at admission because its priority class has
	// exhausted its deadline-miss budget (WithSLOBudget); mapped to 504
	// with a budget-window Retry-After.
	ErrSLOShed = serving.ErrSLOShed
)

// DefaultSLOWindow is the sliding window WithSLOBudget counts deadline
// misses over when no window is given.
const DefaultSLOWindow = serving.DefaultSLOWindow

// Continuous-batching generation (iteration-level scheduling on top of the
// paper's request-level Algorithm 2).
type (
	// GenEngine is the generation runtime: prompt encoder plus the
	// session-based incremental decoder behind /v1/generate.
	GenEngine = core.GenEngine
	// GenRequest is one queued generation request.
	GenRequest = sched.GenRequest
	// ContinuousScheduler admits and evicts generation requests between
	// decode iterations.
	ContinuousScheduler = sched.ContinuousScheduler
)

// NewContinuousScheduler returns an iteration-level scheduler with the
// given concurrency and KV token budget.
func NewContinuousScheduler(maxBatch, tokenBudget int) *ContinuousScheduler {
	return sched.NewContinuousScheduler(maxBatch, tokenBudget)
}

// GPU latency model (for capacity planning and the experiments).
type (
	// Profile is a runtime latency profile.
	Profile = perf.Profile
	// Estimator prices operators on a modelled GPU.
	Estimator = perf.Estimator
)

// NewRTX2060Estimator returns the latency estimator for the paper's
// end-to-end evaluation GPU.
func NewRTX2060Estimator() *Estimator { return perf.NewEstimator(perf.RTX2060()) }

// TurboProfile returns the TurboTransformers runtime profile.
func TurboProfile() Profile { return perf.Turbo() }

// Experiments lists the regenerable paper artefacts (table/figure IDs).
func Experiments() []string {
	var ids []string
	for _, e := range bench.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// RunExperiment regenerates one paper artefact ("fig5", "table4", ...)
// writing its rows to w.
func RunExperiment(id string, w io.Writer) error {
	e, ok := bench.ByID(id)
	if !ok {
		return &UnknownExperimentError{ID: id}
	}
	return bench.RunOne(w, e)
}

// RunAllExperiments regenerates every artefact in paper order.
func RunAllExperiments(w io.Writer) error { return bench.RunAll(w) }

// WriteBenchMetrics persists the key metrics recorded by every modeled
// experiment run so far in this process as machine-readable JSON
// (experiment → metric → value). Live experiments record nothing, so the
// bytes depend only on which experiments ran; measured trajectories are
// cmd/turbo-ledger's.
func WriteBenchMetrics(path string) error { return bench.WriteMetricsFile(path) }

// UnknownExperimentError reports a bad experiment ID.
type UnknownExperimentError struct{ ID string }

// Error implements error.
func (e *UnknownExperimentError) Error() string {
	return "turbo: unknown experiment " + e.ID + " (see Experiments())"
}
