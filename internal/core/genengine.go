package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/allocator"
	"repro/internal/model"
	"repro/internal/tensor"
)

// GenEngine is the generation runtime behind the continuous-batching
// serving path: an encoder that turns prompts into memory (its
// intermediates planned by the sequence-length-aware allocator, Algorithm
// 1) and a Generator that advances many sessions one token per iteration
// through the grouped ragged decode kernels, paging their KV through a
// block pool and replaying retired prompts from its prefix cache. All
// device memory — encoder activation chunks, KV blocks, cross memories, and
// the decode scratch — is accounted on one simulated Device, so MemoryStats
// reflects the whole workload.
type GenEngine struct {
	Cfg    model.Config // encoder geometry (prompt side)
	DecCfg model.Config // decoder geometry (generation side)

	Embedding *model.Embedding
	Encoder   *model.Encoder
	Generator *model.Generator

	dev *allocator.Device

	// Prefill accounting: prompts encoded, encoder passes run, and prompt
	// tokens processed. Batched packed prefill encodes many prompts per
	// pass, so passes ≪ prompts under load — the counter pair the
	// batched-prefill claim is asserted against.
	prefillPrompts atomic.Int64
	prefillPasses  atomic.Int64
	prefillTokens  atomic.Int64
}

// NewGenEngine builds the generation runtime. Encoder and decoder must
// agree on hidden size; opts.Allocator selects the encoder's activation
// planner (default: turbo).
func NewGenEngine(encCfg, decCfg model.Config, opts Options) (*GenEngine, error) {
	if !decCfg.IsDecoder {
		return nil, fmt.Errorf("core: generation needs a decoder config, got %s", decCfg.Name)
	}
	if encCfg.Hidden != decCfg.Hidden {
		return nil, fmt.Errorf("core: encoder hidden %d != decoder hidden %d", encCfg.Hidden, decCfg.Hidden)
	}
	dev := allocator.NewDevice()
	alloc, err := NewAllocator(opts.Allocator, dev)
	if err != nil {
		return nil, err
	}
	enc, err := newEncoderForOpts(encCfg, opts, alloc)
	if err != nil {
		return nil, err
	}
	gen, err := model.NewGenerator(decCfg, opts.Seed+10000, dev, opts.PagedKVBlocks, opts.PrefixEntries)
	if err != nil {
		return nil, err
	}
	if opts.FP16 {
		gen.EnableFP16()
	}
	return &GenEngine{
		Cfg:       encCfg,
		DecCfg:    decCfg,
		Embedding: model.NewEmbedding(encCfg, opts.Seed+20000),
		Encoder:   enc,
		Generator: gen,
		dev:       dev,
	}, nil
}

// StartSessions encodes all admitted prompts in ONE packed (zero-padding)
// encoder pass — ragged [Σlen, hidden] execution, no prompt padded to the
// batch maximum — and opens a session per prompt. The packed encoder is
// property-tested bit-identical to the padded path, so sessions started
// here produce exactly the streams of sessions opened on the padded
// encoder's output. maxNew[i] budgets prompt i (a single value is broadcast
// when len(maxNew) == 1).
//
// On error no session survives: already-opened sessions are closed so the
// caller's admission bookkeeping can simply fail the whole batch.
func (e *GenEngine) StartSessions(ids []int64, prompts [][]int, maxNew []int) ([]*model.GenSession, error) {
	if len(prompts) == 0 {
		return nil, nil
	}
	if len(ids) != len(prompts) {
		return nil, fmt.Errorf("core: %d ids for %d prompts", len(ids), len(prompts))
	}
	if len(maxNew) != len(prompts) && len(maxNew) != 1 {
		return nil, fmt.Errorf("core: %d budgets for %d prompts", len(maxNew), len(prompts))
	}
	// Prompts the prefix cache already knows need no encoding — their
	// session reuses the cached memory — so only the misses join the packed
	// prefill pass. A batch of all-known prompts runs zero encoder passes,
	// the prefill half of the shared-prefix win.
	cached := make([]bool, len(prompts))
	var toEncode [][]int
	encTokens := 0
	for i, p := range prompts {
		if len(p) == 0 {
			return nil, fmt.Errorf("core: empty prompt at index %d", i)
		}
		if e.Generator.PrefixKnown(p) {
			cached[i] = true
			continue
		}
		toEncode = append(toEncode, p)
		encTokens += len(p)
	}
	var encoded *tensor.Packed
	if len(toEncode) > 0 {
		hidden, err := e.Embedding.EncodePacked(toEncode)
		if err != nil {
			return nil, err
		}
		if encoded, _, err = e.Encoder.ForwardPacked(hidden); err != nil {
			return nil, err
		}
	}
	sessions := make([]*model.GenSession, 0, len(prompts))
	slot := 0
	for i := range prompts {
		budget := maxNew[0]
		if len(maxNew) > 1 {
			budget = maxNew[i]
		}
		var memory *tensor.Tensor
		if !cached[i] {
			memory = encoded.Request(slot)
			slot++
		}
		sess, err := e.Generator.NewSession(ids[i], prompts[i], memory, budget)
		if err != nil {
			for _, s := range sessions {
				s.Close()
			}
			return nil, err
		}
		sessions = append(sessions, sess)
	}
	e.prefillPrompts.Add(int64(len(prompts)))
	if len(toEncode) > 0 {
		e.prefillPasses.Add(1)
	}
	e.prefillTokens.Add(int64(encTokens))
	return sessions, nil
}

// Retire hands a finished session back to the engine: it is donated to the
// prefix cache (the next identical prompt replays instead of recomputing),
// or closed when it is not a valid replay.
func (e *GenEngine) Retire(s *model.GenSession) {
	e.Generator.Retire(s)
}

// Close releases the prefix cache's retired entries, then the block pool
// itself. Every live session must already be closed; a pool with blocks
// still held panics (a leak in the caller's bookkeeping).
func (e *GenEngine) Close() { e.Generator.Close() }

// DetachSession exports a session's full state (control stream, cross
// memory, committed KV rows — raw bits) and then closes it, releasing
// every device byte it held here. This is the prefill side of a KV
// hand-off: after DetachSession the snapshot is plain heap data and the
// mid-migration window charges no replica's allocator gauges. The caller
// must be at an iteration boundary (between Steps), like Retire.
func (e *GenEngine) DetachSession(s *model.GenSession) (*model.SessionSnapshot, error) {
	snap, err := s.Export()
	s.Close()
	return snap, err
}

// ImportSession rebuilds an exported session on this engine's device —
// the decode side of a KV hand-off. The cross memory and every committed
// KV row are re-charged through the same allocator paths local decode
// uses, so this engine's gauges end exactly where they would had the
// session run here from the start. Fails with model.ErrKVPoolExhausted
// (holding nothing) when the pool cannot supply the blocks.
func (e *GenEngine) ImportSession(snap *model.SessionSnapshot) (*model.GenSession, error) {
	return e.Generator.ImportSession(snap)
}

// PrefillCounters reports the cumulative prefill accounting: prompts
// encoded, encoder passes run (one per StartSessions batch), and prompt
// tokens processed.
func (e *GenEngine) PrefillCounters() (prompts, passes, tokens int64) {
	return e.prefillPrompts.Load(), e.prefillPasses.Load(), e.prefillTokens.Load()
}

// FP16Enabled reports whether the engine runs the binary16 fast path.
func (e *GenEngine) FP16Enabled() bool { return e.Generator.FP16Enabled() }

// FusedLaunches returns the cumulative fused kernel-chain launches across
// the prefill encoder and the decode attention (0 on the fp32 route).
func (e *GenEngine) FusedLaunches() int64 {
	return e.Encoder.FusedLaunches() + e.Generator.FusedLaunches()
}

// KVBytesPerToken is the device footprint one decoder context token costs
// across all layers' K and V — halved on the fp16 route.
func (e *GenEngine) KVBytesPerToken() int64 { return e.Generator.KVRowBytes() }

// Step advances every live session one greedy token (see Generator.Step).
func (e *GenEngine) Step(sessions []*model.GenSession) ([]int, error) {
	return e.Generator.Step(sessions)
}

// MemoryStats reports the shared device counters (encoder chunks, decode
// scratch, and KV — including the reserved-vs-used KV gauges).
func (e *GenEngine) MemoryStats() allocator.Snapshot {
	return e.dev.Snapshot()
}
