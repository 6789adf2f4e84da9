// Command turbo-serve runs the live serving framework: a BERT-style
// classification service with the paper's DP batch scheduling over a
// warmed-up cost dictionary, plus continuous-batching generation — both
// behind ONE bounded, context-aware admission queue.
//
//	turbo-serve -addr :8080 -classes 4 -hidden 128 -layers 4
//
// Endpoints:
//
//	POST /v1/classify {"text": "...", "deadline_ms": n, "priority": p}
//	                                   → {"class": k, "batch_size": b, ...}
//	POST /v1/generate {"text": "...", "max_new_tokens": n, "stream": true}
//	                                   → continuous-batching generation
//	                                     (NDJSON token stream, or one JSON
//	                                     object when stream is false)
//	GET  /v1/stats                     → serving counters (queue depth,
//	                                     rejected/expired/cancelled jobs,
//	                                     tokens processed, KV reservations)
//
// A full admission queue answers 429 + Retry-After; SIGINT/SIGTERM drains
// in-flight work (bounded by -drain-timeout) before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	turbo "repro"
	"repro/internal/sched"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	classes := flag.Int("classes", 4, "number of output classes")
	hidden := flag.Int("hidden", 128, "hidden size (CPU-friendly default)")
	heads := flag.Int("heads", 4, "attention heads")
	layers := flag.Int("layers", 4, "encoder layers")
	maxBatch := flag.Int("max-batch", 8, "maximum batch size")
	maxLen := flag.Int("max-len", 128, "maximum request length for the warm-up sweep")
	cacheSize := flag.Int("cache", 1024, "response cache entries (0 disables)")
	seed := flag.Int64("seed", 42, "weight seed")
	costFile := flag.String("cost-file", "", "persist/reload the warm-up cost dictionary (§5: stored on disk, reloaded on restart); the DP scheduler and token-cost routing price by its token-cost fit")
	batchWindow := flag.Duration("batch-window", 0, "lazy-strategy accumulation window (0 = hungry strategy)")
	fp16 := flag.Bool("fp16", false, "run the binary16 fast path: fp16-storage GEMMs, half-size KV cache, fused launch chains (fp32 stays the default)")
	queueDepth := flag.Int("queue-depth", 256, "bounded admission queue depth per replica (submissions beyond it get 429)")
	replicas := flag.Int("replicas", 1, "independent serving replicas behind the routed front door (1 = single server, no router)")
	balance := flag.String("balance", "token-cost", "replica routing policy: round-robin, least-queue, or token-cost")
	rolesFlag := flag.String("roles", "", "comma-separated replica roles (prefill,decode,mixed); when set, the replica count is len(roles) and generations hand KV off from prefill to decode replicas")
	autoMin := flag.Int("autoscale-min", 0, "elastic fleet lower bound; with -autoscale-max it replaces -replicas and an autoscale control loop sizes the fleet (0 disables)")
	autoMax := flag.Int("autoscale-max", 0, "elastic fleet upper bound (see -autoscale-min)")
	autoTick := flag.Duration("autoscale-tick", 0, "autoscale control-loop sampling period (0 = default 250ms, the drain-meter window)")
	sloBudget := flag.Int("slo-budget", 0, "deadline misses a priority class may accumulate inside -slo-window before further jobs of that class are shed at admission with 504 (0 disables)")
	sloWindow := flag.Duration("slo-window", 0, "sliding window -slo-budget is counted over (0 = default 5s)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound: in-flight work is aborted past this")
	generate := flag.Bool("generate", true, "enable the /v1/generate continuous-batching path")
	genMaxBatch := flag.Int("gen-max-batch", 8, "max concurrent decode sequences")
	genMaxNew := flag.Int("gen-max-new", 32, "default max_new_tokens for /v1/generate")
	genKVBlocks := flag.Int("gen-kv-blocks", 0, "KV block pool capacity the generation path pages through (0 = derive from decoder geometry)")
	genPrefixEntries := flag.Int("gen-prefix-entries", 0, "retired generations the prefix cache keeps for prompt-identical replay (0 = default 64)")
	flag.Parse()

	cfg := turbo.BertBase().Scaled(*hidden, *heads, 4**hidden, *layers)

	policy, err := turbo.ParseBalancePolicy(*balance)
	if err != nil {
		log.Fatal(err)
	}

	roles, err := turbo.ParseReplicaRoles(*rolesFlag)
	if err != nil {
		log.Fatal(err)
	}
	if len(roles) > 0 {
		// Roles imply the replica count: one replica per role tag.
		*replicas = len(roles)
		log.Printf("replica roles %s: running %d replicas", *rolesFlag, *replicas)
	}

	// One option list is the whole configuration: engine knobs, serving
	// knobs, replicas, and the generation path all hang off the same front
	// door.
	opts := []turbo.Option{
		turbo.WithSeed(*seed),
		turbo.WithClasses(*classes),
		turbo.WithMaxBatch(*maxBatch),
		turbo.WithCache(*cacheSize),
		turbo.WithBatchWindow(*batchWindow),
		turbo.WithQueueDepth(*queueDepth),
		turbo.WithBalancePolicy(policy),
	}
	elastic := *autoMin != 0 || *autoMax != 0
	if elastic {
		// The control loop sizes the fleet between the bounds; -replicas
		// does not apply (turbo.Serve refuses the combination).
		opts = append(opts, turbo.WithAutoscale(*autoMin, *autoMax))
		if *autoTick > 0 {
			opts = append(opts, turbo.WithAutoscaleTick(*autoTick))
		}
	} else {
		opts = append(opts, turbo.WithReplicas(*replicas))
	}
	if *sloBudget > 0 {
		opts = append(opts, turbo.WithSLOBudget(*sloBudget, *sloWindow))
	}
	if *fp16 {
		opts = append(opts, turbo.WithFP16())
	}
	if *generate {
		decCfg := turbo.Seq2SeqDecoder().Scaled(*hidden, *heads, 4**hidden, *layers)
		opts = append(opts,
			turbo.WithGeneration(decCfg),
			turbo.WithGenMaxBatch(*genMaxBatch),
			turbo.WithGenDefaultMaxNew(*genMaxNew),
			turbo.WithPagedKV(*genKVBlocks),
			turbo.WithPrefixCache(*genPrefixEntries),
		)
	}
	rt, err := turbo.NewRuntime(cfg, opts...)
	if err != nil {
		log.Fatal(err)
	}

	// Warm-up phase (§6.3): measure real engine latency over the sampled
	// parameter space. price runs one uniform (seqLen, batch) inference.
	price := func(seqLen, batch int) time.Duration {
		toks := make([][]int, batch)
		for i := range toks {
			row := make([]int, seqLen)
			for j := range row {
				row[j] = 3 + (i*31+j*7)%(cfg.Vocab-3)
			}
			toks[i] = row
		}
		start := time.Now()
		if _, _, err := rt.Engine.Encode(toks); err != nil {
			log.Fatalf("warmup: %v", err)
		}
		return time.Since(start)
	}

	// One sweep: reload a persisted dictionary if present, otherwise
	// measure one and persist it. The DP scheduler and the token-cost
	// routing policy read the dictionary's token-cost fit: the engine is
	// packed, so a mixed-length batch costs the work actually done, not
	// batch·maxLen.
	var cached *turbo.CachedCost
	if *costFile != "" {
		if loaded, err := turbo.LoadCost(*costFile); err == nil {
			cached = loaded
			log.Printf("reloaded cost dictionary from %s", *costFile)
		}
	}
	if cached == nil {
		log.Printf("warming up cost dictionary (maxLen=%d, maxBatch=%d)...", *maxLen, *maxBatch)
		cached = turbo.WarmupCost(price, *maxLen, *maxBatch, *maxLen/8)
		if *costFile != "" {
			if err := turbo.SaveCost(cached, *costFile); err != nil {
				log.Printf("warning: could not persist cost dictionary: %v", err)
			} else {
				log.Printf("persisted cost dictionary to %s", *costFile)
			}
		}
	}
	fit := cached.Fit()
	log.Printf("cost ready: fixed=%.0fns perToken=%.1fns perTok²=%.3fns; e.g. cost(len=%d, batch=1) = %v",
		fit.Fixed, fit.PerToken, fit.PerSqToken, *maxLen, fit.BatchCost(sched.Uniform(*maxLen, 1)))

	serveOpts := []turbo.Option{turbo.WithScheduler(turbo.NewDPScheduler(fit, *maxBatch))}
	if len(roles) > 0 {
		serveOpts = append(serveOpts, turbo.WithReplicaRoles(roles...))
	}
	if (*replicas > 1 || elastic) && policy == turbo.TokenCostRouting {
		serveOpts = append(serveOpts, turbo.WithRouteCost(fit))
	}
	srv, err := rt.Serve(serveOpts...)
	if err != nil {
		log.Fatal(err)
	}
	if elastic {
		log.Printf("autoscaling %d..%d replicas, policy %s (shed budget: %d misses / %v)",
			*autoMin, *autoMax, policy, *sloBudget, *sloWindow)
	} else if *replicas > 1 {
		log.Printf("routing over %d replicas, policy %s", *replicas, policy)
	}
	if *generate {
		kv := "paged KV + prefix cache"
		if *fp16 {
			kv = "binary16 " + kv
		}
		log.Printf("generation enabled: decoder %d layers, hidden %d, max batch %d, grouped ragged decode attention, batched packed prefill, %s",
			*layers, *hidden, *genMaxBatch, kv)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Printf("signal received: draining (timeout %v)...", *drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Stop accepting connections first, then drain the job queue and
		// join the dispatchers.
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("drain incomplete, aborted remaining work: %v", err)
		} else {
			log.Printf("drained cleanly")
		}
	}()

	fmt.Printf("turbo-serve: %s model (%d layers, hidden %d) listening on %s\n",
		cfg.Name, cfg.Layers, cfg.Hidden, *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-drained
}
