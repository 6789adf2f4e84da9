package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	turbo "repro"
)

// The system under test, fixed for all workloads: a 2-layer, hidden-128
// BERT-shaped packed encoder with a 4-class head, a matching Seq2Seq decoder
// behind paged KV, the turbo allocator, and the DP batch scheduler over a
// warm-up-measured cost dictionary. Only buildSpec varies per workload.
const (
	modelSeed  = 7
	classes    = 4
	maxBatch   = 8
	queueDepth = 512
)

func encoderConfig() turbo.Config { return turbo.BertBase().Scaled(128, 4, 512, 2) }
func decoderConfig() turbo.Config { return turbo.Seq2SeqDecoder().Scaled(128, 4, 512, 2) }

// scale sizes a run. fullScale is the benchmark; the unit test shrinks the
// warm-up grid and probe counts so all four workloads fit in seconds.
type scale struct {
	WarmLen    int // cost warm-up: longest sampled length
	WarmBatch  int // cost warm-up: largest sampled batch
	WarmStride int // cost warm-up: length stride
	OracleMin  int // smallest oracle sample
	ProbeReqs  int // requests the layer replay covers
	SoloProbes int // solo requests behind each overhead probe
	ProbeReps  int // repetitions of the decode GEMM shape probe
	StepCap    int // decode steps per probed session group
}

// fullScale's warm-up grid samples lengths 1, 17, 33, 48 at batch 1..8 (≈0.7 s
// on the 2-core box); longer requests extrapolate from the last segment, as
// the dictionary is documented to do.
var fullScale = scale{WarmLen: 48, WarmBatch: maxBatch, WarmStride: 16,
	OracleMin: 50, ProbeReqs: 256, SoloProbes: 48, ProbeReps: 50, StepCap: 24}

// system is one built and serving instance.
type system struct {
	rt      *turbo.Runtime
	svc     turbo.Service
	handler http.Handler
	cost    turbo.CostModel // the dictionary the DP scheduler prices batches with
}

// newRuntime builds the engines for b; it is also how the oracle and the
// layer probes get engines that share nothing with the serving instance.
func newRuntime(b buildSpec) (*turbo.Runtime, error) {
	opts := []turbo.Option{
		turbo.WithSeed(modelSeed),
		turbo.WithClasses(classes),
		turbo.WithPacked(),
		turbo.WithAllocator(turbo.AllocTurbo),
		turbo.WithMaxBatch(maxBatch),
		turbo.WithQueueDepth(queueDepth),
		turbo.WithGeneration(decoderConfig()),
		turbo.WithGenMaxBatch(maxBatch),
		turbo.WithPagedKV(0),
	}
	if b.FP16 {
		opts = append(opts, turbo.WithFP16())
	}
	return turbo.NewRuntime(encoderConfig(), opts...)
}

// buildSystem is the set-up setup_s times: runtime build, cost warm-up on
// the runtime's own engine, and Serve.
func buildSystem(b buildSpec, sc scale) (*system, error) {
	rt, err := newRuntime(b)
	if err != nil {
		return nil, fmt.Errorf("build runtime: %w", err)
	}

	// Warm-up (§6.3): price uniform (length, batch) inferences on the real
	// engine. Prices are kept so the routing fit reuses the sweep.
	vocab := encoderConfig().Vocab
	type point struct{ seqLen, batch int }
	measured := map[point]time.Duration{}
	var priceErr error
	price := func(seqLen, batch int) time.Duration {
		p := point{seqLen, batch}
		if d, ok := measured[p]; ok {
			return d
		}
		toks := make([][]int, batch)
		for i := range toks {
			row := make([]int, seqLen)
			for j := range row {
				row[j] = 3 + (i*31+j*7)%(vocab-3)
			}
			toks[i] = row
		}
		start := now()
		if _, _, err := rt.Engine.Encode(toks); err != nil && priceErr == nil {
			priceErr = err
		}
		measured[p] = since(start)
		return measured[p]
	}
	cost := turbo.WarmupCost(price, sc.WarmLen, sc.WarmBatch, sc.WarmStride)
	serveOpts := []turbo.Option{turbo.WithScheduler(turbo.NewDPScheduler(cost, maxBatch))}
	if b.Replicas > 1 {
		serveOpts = append(serveOpts,
			turbo.WithReplicas(b.Replicas),
			turbo.WithBalancePolicy(turbo.TokenCostRouting),
			turbo.WithRouteCost(turbo.WarmupTokenCost(price, sc.WarmLen, sc.WarmBatch, sc.WarmStride)))
	}
	if priceErr != nil {
		return nil, fmt.Errorf("cost warm-up: %w", priceErr)
	}
	svc, err := rt.Serve(serveOpts...)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return &system{rt: rt, svc: svc, handler: svc.Handler(), cost: cost}, nil
}

// stop drains the service; a run has no in-flight work by then, so the
// bound only guards against a wedged dispatcher.
func (s *system) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.svc.Shutdown(ctx)
}

// peakDeviceBytes is replica 0's simulated device high-water mark: encoder
// activation chunks plus the generation engine's KV blocks and scratch.
func (s *system) peakDeviceBytes() int64 {
	return s.rt.Engine.MemoryStats().PeakBytes + s.rt.GenEngine.MemoryStats().PeakBytes
}
