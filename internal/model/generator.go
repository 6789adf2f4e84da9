package model

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/allocator"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Generator drives iteration-level (continuous-batching) autoregressive
// generation on top of the Seq2Seq decoder: it advances an arbitrary set of
// live sessions by exactly one token per Step call, so a serving loop can
// admit and evict requests between decode iterations.
//
// Every projection is batched across sessions ([rows,H]×[H,N] GEMMs) even
// though the sessions sit at different positions with different context
// lengths — and the ragged parts run grouped: self- and cross-attention
// execute as one kernels.DecodeWorkspace.Attention call per sub-layer, a
// grouped strided-batched GEMM over the flattened (session, span, head)
// space with each session's own context length as its group shape, plus a
// softmax over the concatenated score rows. No session is ever padded to a
// batch-maximum context. A session's self-attention KV lives in blocks of
// the generator's pool (BlockKVCache), and how it is stored (fp32 or
// binary16) reaches the kernel as a kernels.KVSpans view, so there is one
// Step for both precisions. Because every (session, span, head) problem runs
// the same GEMM kernel the per-row oracle uses, a session's token stream is
// bit-identical whether it runs alone, batched with strangers, or through
// the PerRowAttention reference path.
//
// Every Generator owns its KV block pool and a prefix cache of retired
// generations for prompt-identical reuse (encoder skip, token replay, and
// block-table sharing).
//
// Step draws its activations from the decoder's device-accounted decode
// scratch, so concurrent Step calls on one Generator serialise on that
// workspace — the serving loop is single-threaded by design. Sessions may
// be created and closed from any goroutine.
type Generator struct {
	Cfg Config
	dec *Decoder
	dev *allocator.Device

	// PerRowAttention selects the reference oracle: per-session single-query
	// attention (Decoder.attend) instead of the grouped ragged kernel. Token
	// streams are bit-identical either way — property tests and the
	// gen-decode benchmark pin it. Set by tests and experiments only; it is
	// not a serving mode.
	PerRowAttention bool

	pool   *allocator.BlockPool
	prefix *PrefixCache

	// fusedLaunches counts the fused attention kernel chains the fp16 route
	// has dispatched (score-GEMM-with-fused-scale + softmax-cast + context
	// product as one grouped call per sub-layer). Exposed via /v1/stats.
	fusedLaunches atomic.Int64
}

// ErrKVPoolExhausted is returned by Step when a session cannot acquire the
// blocks its next row needs. The serving loop reacts by scavenging the
// prefix cache or preempting a session, then retries — it pre-ensures block
// capacity before stepping, so Step itself should never see this unless the
// pool is undersized for even one request.
var ErrKVPoolExhausted = fmt.Errorf("model: KV block pool exhausted")

// BlockPool returns the generator's KV block pool.
func (g *Generator) BlockPool() *allocator.BlockPool { return g.pool }

// BlockTokens returns how many context rows one pool block holds on this
// generator's numeric route: KVChunkTokens on fp32, twice that on fp16.
func (g *Generator) BlockTokens() int {
	return int(g.pool.BlockBytes() / (int64(g.Cfg.Hidden) * kvElemBytes(g.dec.fp16)))
}

// PrefixStats snapshots prefix-cache activity.
func (g *Generator) PrefixStats() PrefixCacheStats { return g.prefix.stats() }

// PrefixKnown reports whether the prefix cache holds an entry for this
// exact prompt — the prefill loop's peek for deciding which admitted
// prompts can skip the encoder pass. Hit/miss counters move only when a
// session is actually opened (NewSession).
func (g *Generator) PrefixKnown(prompt []int) bool { return g.prefix.lookup(prompt) != nil }

// ScavengePrefix drops retired decode KV from least-recently-used prefix
// entries until at least need pool blocks come free, returning the number
// freed. Cached token streams stay replayable.
func (g *Generator) ScavengePrefix(need int) int { return g.prefix.scavenge(need) }

// ClosePrefix releases every retired entry, keeping the generator usable.
func (g *Generator) ClosePrefix() { g.prefix.drop() }

// Close releases the prefix cache's retired entries, then the block pool.
// Every live session must already be closed: a pool with blocks still held
// panics (a leak in the caller's bookkeeping).
func (g *Generator) Close() {
	g.prefix.drop()
	g.pool.Close()
}

// KVRowBytes is the device footprint one token of decoder context costs
// across all layers' K and V — the unit converting token counts into the
// device's KV byte gauges. The fp16 fast path halves it: binary16 rows cost
// 2 bytes per element, so the same device budget admits ~2× the context
// tokens.
func (g *Generator) KVRowBytes() int64 {
	return int64(g.Cfg.Layers) * 2 * int64(g.Cfg.Hidden) * kvElemBytes(g.dec.fp16)
}

// EnableFP16 switches generation to the binary16 fast path: weights encoded
// once, KV caches (self and cross) stored as binary16, which switches the
// decode-attention kernel to its fused fp16 numerics. Must be called before
// any session is opened. Idempotent.
func (g *Generator) EnableFP16() { g.dec.EnableFP16() }

// FP16Enabled reports whether the fp16 fast path is active.
func (g *Generator) FP16Enabled() bool { return g.dec.fp16 }

// FusedLaunches returns how many fused attention kernel chains the fp16
// route has dispatched.
func (g *Generator) FusedLaunches() int64 { return g.fusedLaunches.Load() }

// NewGenerator builds a generator around a decoder configuration. Its KV
// block pool holds poolBlocks blocks of KVChunkTokens fp32 rows each — the
// same blocks pack twice the binary16 rows, so an fp16 pool admits ~2× the
// sessions instead of shrinking — and 0 sizes it for eight sessions at the
// full MaxTargetLen budget; the admission gate and preemption handle running
// past it. The prefix cache keeps up to prefixEntries retired generations
// (0: 64). KV blocks and the decode scratch are accounted on dev.
func NewGenerator(cfg Config, seed int64, dev *allocator.Device, poolBlocks, prefixEntries int) (*Generator, error) {
	dec, err := NewDecoder(cfg, seed)
	if err != nil {
		return nil, err
	}
	if dev == nil {
		dev = allocator.NewDevice()
	}
	// Rebind the decoder's workspace to the shared device so decode
	// activations are visible in the same MemoryStats as KV caches.
	dec.scr = newDecodeScratch(dev)
	if poolBlocks <= 0 {
		perSeq := 2 * cfg.Layers * ((cfg.MaxTargetLen + KVChunkTokens - 1) / KVChunkTokens)
		poolBlocks = 8 * perSeq
	}
	return &Generator{
		Cfg:    cfg,
		dec:    dec,
		dev:    dev,
		pool:   allocator.NewBlockPool(dev, int64(KVChunkTokens)*int64(cfg.Hidden)*4, poolBlocks),
		prefix: newPrefixCache(prefixEntries),
	}, nil
}

// Decoder exposes the underlying decoder (for tests comparing against its
// per-row greedy oracle).
func (g *Generator) Decoder() *Decoder { return g.dec }

// GenSession is one request's in-flight generation state: its cross-
// attention memory, its paged self-attention KV, and the greedy token
// stream so far.
type GenSession struct {
	ID int64

	cc     *crossCache
	ccr    *ccRef        // refcounted, device-accounted handle on cc
	kv     *BlockKVCache // self-attention KV; nil once closed
	prompt []int         // prompt tokens (prefix key)
	toks   []int         // generated tokens, EOS included if hit
	next   int           // token fed at the next step (BOS, then last generated)
	pos    int           // next decode position
	maxNew int
	done   bool
	ctx    context.Context // nil = never cancelled
}

// Bind attaches a lifecycle context to the session. The decode loop driving
// the session checks Cancelled between iterations and evicts the session
// (releasing its KV reservation) within one step of the context ending —
// Step itself never aborts a batch mid-iteration, so cancelling one
// session's context cannot perturb its batch-mates' token streams.
func (s *GenSession) Bind(ctx context.Context) { s.ctx = ctx }

// Cancelled reports whether the session's bound context (if any) has ended
// — the per-iteration check continuous-batching loops make between steps.
func (s *GenSession) Cancelled() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// Generated returns the tokens produced so far.
func (s *GenSession) Generated() []int { return s.toks }

// Done reports whether the session hit EOS or its token budget.
func (s *GenSession) Done() bool { return s.done }

// ContextLen returns the number of tokens in the self-attention cache.
func (s *GenSession) ContextLen() int { return s.kv.Len() }

// SrcLen returns the cross-attention memory length (the prompt width).
func (s *GenSession) SrcLen() int { return s.cc.srcLen }

// KVBytes returns the session's current KV-cache device footprint.
func (s *GenSession) KVBytes() int64 { return s.kv.Bytes() }

// EnsureAppendable pre-acquires (and copy-on-writes) whatever blocks the
// session's next decode row needs, returning false when the pool cannot
// supply them — the serving loop's pre-step reservation hook. Always true
// for finished or closed sessions. Idempotent.
func (s *GenSession) EnsureAppendable() bool {
	return s.kv == nil || s.done || s.kv.EnsureAppendable()
}

// NewSession opens a generation session keyed by the prompt's tokens that
// will produce at most maxNew tokens (clamped to the decoder's
// MaxTargetLen). On a prefix hit (an identical prompt was retired before)
// the cached cross cache is shared — memory may be nil, letting the caller
// skip the encoder pass entirely — the cached greedy stream is replayed up
// to maxNew (bit-identical to decoding, greedy is deterministic), and a
// continuation past it maps the retired block tables copy-free. On a miss,
// memory must be the encoded prompt [srcLen, hidden] and decoding starts
// from scratch over an empty block table, which acquires blocks only as
// decode depth reaches them.
func (g *Generator) NewSession(id int64, prompt []int, memory *tensor.Tensor, maxNew int) (*GenSession, error) {
	if len(prompt) == 0 {
		return nil, fmt.Errorf("model %s: a session needs the prompt tokens", g.Cfg.Name)
	}
	if maxNew <= 0 || maxNew > g.Cfg.MaxTargetLen {
		maxNew = g.Cfg.MaxTargetLen
	}
	entry := g.prefix.lookup(prompt)
	var ccr *ccRef
	switch {
	case entry != nil:
		ccr = entry.ccr.retain()
		g.prefix.noteHit()
	case memory == nil:
		return nil, fmt.Errorf("model %s: prompt not cached and no memory supplied", g.Cfg.Name)
	default:
		if memory.Rank() != 2 || memory.Dim(1) != g.Cfg.Hidden {
			return nil, fmt.Errorf("model %s: memory shape %v, want [srcLen, %d]",
				g.Cfg.Name, memory.Shape(), g.Cfg.Hidden)
		}
		ccr = newCCRef(g.dev, g.dec.newCrossCache(memory, g.dec.fp16))
		g.prefix.noteMiss()
	}
	pkv, err := newBlockKVCache(g.pool, g.Cfg.Layers, g.Cfg.Hidden, g.dec.fp16)
	if err != nil {
		ccr.close()
		return nil, err
	}
	s := &GenSession{
		ID:     id,
		cc:     ccr.cc,
		ccr:    ccr,
		kv:     pkv,
		prompt: append([]int(nil), prompt...),
		next:   TokBos,
		maxNew: maxNew,
	}
	if entry == nil {
		return s, nil
	}
	replay := len(entry.toks)
	if replay > maxNew {
		replay = maxNew
	}
	if replay == maxNew || entry.hitEos {
		// The cached stream answers the request outright: budget reached, or
		// the cache holds the full stream to EOS. Born done, zero decode.
		s.toks = append(s.toks, entry.toks[:replay]...)
		s.pos = replay
		s.done = true
		g.prefix.noteReplay(replay)
		return s, nil
	}
	// Continuation: the cached stream is shorter than the budget and open-
	// ended. Map its block tables (copy-on-write at the tail) and resume
	// exactly where the donor stopped; if the KV was scavenged, fall through
	// to a fresh decode — the shared cross cache still skipped the encoder.
	if entry.kv != nil && entry.kv.Len() == replay && replay > 0 {
		if err := pkv.MapFrom(entry.kv, replay); err != nil {
			ccr.close()
			pkv.Free()
			return nil, err
		}
		s.toks = append(s.toks, entry.toks[:replay]...)
		s.pos = replay
		s.next = entry.toks[replay-1]
		g.prefix.noteReplay(replay)
	}
	return s, nil
}

// Retire donates a naturally-completed session to the prefix cache — its
// cross cache, token stream, and block tables — instead of freeing them, so
// the next identical prompt replays instead of recomputing. Falls back to
// Close for closed or unfinished sessions (their stream is not a valid
// replay), imports without a prompt, or when an existing entry already
// covers the prompt.
func (g *Generator) Retire(s *GenSession) {
	if s == nil {
		return
	}
	if s.kv == nil || s.prompt == nil || !s.done {
		s.Close()
		return
	}
	hitEos := len(s.toks) > 0 && s.toks[len(s.toks)-1] == TokEos
	if g.prefix.insert(s.prompt, s.ccr, s.toks, hitEos, s.kv) {
		// Ownership moved to the cache entry, which runs nothing.
		s.ccr.park()
		s.ccr, s.kv = nil, nil
		return
	}
	s.Close()
}

// Close releases the session's device memory. Idempotent.
func (s *GenSession) Close() {
	if s.kv != nil {
		s.kv.Free()
		s.kv = nil
	}
	if s.ccr != nil {
		s.ccr.close()
		s.ccr = nil
	}
}

// Step advances every session by one greedy token and returns the token
// chosen for each, in order. Sessions marked done are rejected — the
// continuous scheduler must evict them between iterations.
//
// On the fp16 route the loop is the same and every projection's operands are
// binary16: EnableFP16 rounded the weights once (stored as binary16, which
// blas.GemmHalfB converts in its load, where the CPU has the converter), and
// each activation rounds once where it is produced (bit-identical to blas.GemmF16 over the encoded operands, without
// its per-call decode). The KV stores cast rows to binary16 as they are
// appended, and the attention kernel reads that off the span views.
func (g *Generator) Step(sessions []*GenSession) ([]int, error) {
	rows := len(sessions)
	if rows == 0 {
		return nil, nil
	}
	d := g.dec
	// Iteration shape: Σ self-context (including the row each session is
	// about to append) and Σ cross-context size the score scratch must hold.
	sumSelf, sumCross := 0, 0
	for _, s := range sessions {
		if s.done {
			return nil, fmt.Errorf("model %s: session %d already done", g.Cfg.Name, s.ID)
		}
		if s.kv == nil {
			return nil, fmt.Errorf("model %s: session %d closed", g.Cfg.Name, s.ID)
		}
		if s.cc.half() != d.fp16 {
			return nil, fmt.Errorf("model %s: session %d opened on the other numeric route (EnableFP16 after open?)", g.Cfg.Name, s.ID)
		}
		sumSelf += s.ContextLen() + 1
		sumCross += s.cc.srcLen
	}
	// Pre-acquire this step's rows (boundary and CoW blocks) so the append
	// loop below cannot fail mid-iteration. Serving loops call
	// EnsureAppendable themselves before stepping (to scavenge or preempt on
	// exhaustion); this re-check is then a cheap no-op.
	for _, s := range sessions {
		if !s.kv.EnsureAppendable() {
			return nil, ErrKVPoolExhausted
		}
	}
	h, inter, vocab, heads := g.Cfg.Hidden, g.Cfg.Inter, g.Cfg.Vocab, g.Cfg.Heads
	hd := h / heads
	scale := float32(1 / math.Sqrt(float64(hd)))

	scr := d.scr
	scr.mu.Lock()
	defer scr.mu.Unlock()
	// Drop this iteration's KV references on the way out so an idle
	// generator never pins evicted sessions' caches (LIFO: runs before
	// the unlock above).
	defer scr.clearGather()
	scr.plan(&g.Cfg, rows, max(sumSelf, sumCross))
	x := scr.x[:rows*h]
	q := scr.q[:rows*h]
	kNew := scr.k[:rows*h]
	vNew := scr.v[:rows*h]
	ctx := scr.ctx[:rows*h]
	proj := scr.proj[:rows*h]
	interBuf := scr.inter[:rows*inter]

	// Embed every session's next token at its own position.
	for ri, s := range sessions {
		d.Embed.embedRow(s.next, s.pos, x[ri*h:(ri+1)*h])
	}
	kernels.LayerNorm(x, d.Embed.Gamma.Data(), d.Embed.Beta.Data(), rows, h, 1e-5)

	// The numeric route, picked once. operand is the Tensor Core load
	// conversion of an activation that is still needed unrounded (x feeds the
	// residual): one pass into the workspace's operand scratch, valid until
	// the next call. Activations with the GEMM as their only consumer
	// (attention context, FFN intermediate, the final hidden rows) round in
	// place. On fp32 both are the identity.
	operand := func(in []float32) []float32 { return in }
	roundInPlace := func([]float32) {}
	if d.fp16 {
		operand = func(in []float32) []float32 {
			xr := scr.roundedIn(len(in))
			tensor.RoundF16Into(xr, in)
			return xr
		}
		roundInPlace = tensor.RoundSliceF16
	}
	// batchedLinear is out = in·W + bias over the step's rows, W read through
	// its fp16-route form wh (the zero halfWeight on fp32).
	batchedLinear := func(in []float32, w *tensor.Tensor, wh halfWeight, bias *tensor.Tensor, out []float32) {
		project(rows, in, w, wh, out)
		if bias != nil {
			kernels.AddBias(out, bias.Data(), rows, w.Dim(1))
		}
	}
	// projectNorm closes a sub-layer: x = LayerNorm(x + (in·W + bias)), the
	// bias, residual and normalisation in one pass over the rows.
	projectNorm := func(in []float32, w *tensor.Tensor, wh halfWeight, bias, gamma, beta *tensor.Tensor) {
		project(rows, in, w, wh, proj)
		kernels.AddBiasLayerNorm(x, proj, bias.Data(), gamma.Data(), beta.Data(), rows, h, 1e-5)
	}
	// attention runs the gathered views (scr.keys/vals/lens, one entry per
	// session) through the grouped kernel, or the per-row oracle.
	attention := func(sumCtx int) {
		if g.PerRowAttention {
			for ri := range sessions {
				d.attend(q[ri*h:(ri+1)*h], scr.keys[ri], scr.vals[ri], scr.lens[ri], ctx[ri*h:(ri+1)*h])
			}
		} else {
			scr.ws.Attention(q, scr.keys, scr.vals, scr.lens, heads, hd, scale, scr.scores[:heads*sumCtx], ctx)
			if d.fp16 {
				g.fusedLaunches.Add(1)
			}
		}
		roundInPlace(ctx)
	}

	for l := range d.layers {
		lw, hw := &d.layers[l], d.halves(l)

		// Self-attention: batched projections, then ragged attention over
		// each session's own KV — the row just appended included — read
		// straight through its span view, no gather copy.
		xr := operand(x)
		batchedLinear(xr, lw.selfWq, hw.selfWq, lw.selfBq, q)
		batchedLinear(xr, lw.selfWk, hw.selfWk, lw.selfBk, kNew)
		batchedLinear(xr, lw.selfWv, hw.selfWv, lw.selfBv, vNew)
		scr.clearGather()
		for ri, s := range sessions {
			s.kv.AppendRow(l, kNew[ri*h:(ri+1)*h], vNew[ri*h:(ri+1)*h])
			k, v := s.kv.Spans(l)
			scr.keys, scr.vals = append(scr.keys, k), append(scr.vals, v)
			scr.lens = append(scr.lens, s.kv.Len()+1)
		}
		attention(sumSelf)
		projectNorm(ctx, lw.selfWo, hw.selfWo, lw.selfBo, lw.selfLnG, lw.selfLnB)

		// Cross-attention against each session's own prompt memory, grouped
		// the same way (ragged srcLen per session).
		batchedLinear(operand(x), lw.crossWq, hw.crossWq, lw.crossBq, q)
		scr.clearGather()
		for _, s := range sessions {
			scr.keys, scr.vals = append(scr.keys, s.cc.k[l]), append(scr.vals, s.cc.v[l])
			scr.lens = append(scr.lens, s.cc.srcLen)
		}
		attention(sumCross)
		projectNorm(ctx, lw.crossWo, hw.crossWo, lw.crossBo, lw.crossLnG, lw.crossLnB)

		// Feed-forward network, batched; bias and activation in one sweep.
		batchedLinear(operand(x), lw.ffnW1, hw.ffnW1, nil, interBuf)
		kernels.AddBiasAct(g.Cfg.Act, interBuf, lw.ffnB1.Data(), rows, inter)
		roundInPlace(interBuf)
		projectNorm(interBuf, lw.ffnW2, hw.ffnW2, lw.ffnB2, lw.ffnLnG, lw.ffnLnB)
	}

	// Vocabulary projection and greedy argmax per session.
	logits := scr.logits[:rows*vocab]
	roundInPlace(x)
	batchedLinear(x, d.Proj, d.projF16, nil, logits)
	out := make([]int, rows)
	for ri, s := range sessions {
		tok := argmax(logits[ri*vocab : (ri+1)*vocab])
		out[ri] = tok
		s.toks = append(s.toks, tok)
		s.kv.Advance()
		s.pos++
		s.next = tok
		if tok == TokEos || len(s.toks) >= s.maxNew {
			s.done = true
		}
	}
	return out, nil
}

// argmax returns the index of the largest value (first on ties, for
// determinism).
func argmax(vals []float32) int {
	best := 0
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[best] {
			best = i
		}
	}
	return best
}
