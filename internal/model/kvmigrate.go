package model

import (
	"fmt"

	"repro/internal/kernels"
)

// SessionSnapshot is a GenSession serialized for migration between engines
// — the KV hand-off payload of prefill/decode disaggregation. It carries
// everything a decode replica needs to resume the session exactly where
// the prefill replica stopped: the control state (token stream, position,
// budget), the projected cross-attention memory, and every committed
// self-attention KV row, all as raw bits. fp16 rows travel as their
// binary16 storage words (never decoded through float32), so an imported
// session's caches are byte-for-byte the exporter's and greedy decode
// continues bit-identically on the other side.
//
// A snapshot holds no device memory — it is plain heap data. The exporter
// frees its device-side state the moment the copy exists (Close), so the
// mid-migration window charges neither replica's allocator gauges.
type SessionSnapshot struct {
	ID     int64
	Prompt []int // prompt tokens (the importer's prefix-cache key)
	Toks   []int // generated tokens so far, EOS included if hit
	Next   int   // token fed at the next step
	Pos    int   // next decode position
	MaxNew int   // decode budget (what the importer's admission prices)
	Done   bool

	Half   bool // binary16 storage, cross memory and self KV alike
	Hidden int
	Layers int

	// Cross-attention memory: per layer one K and one V view holding SrcLen
	// rows, in the format Half names.
	SrcLen         int
	CrossK, CrossV []kernels.KVSpans

	// Self-attention KV: KVLen committed rows per layer, same format.
	KVLen        int
	SelfK, SelfV []kernels.KVSpans
}

// Bytes returns the KV payload size of the snapshot — the figure the
// router's kv_migrated_bytes counter and the migration cost model price. It
// equals the device KV-used bytes the session occupied at export (cross
// rows plus committed self rows), so migrated-bytes totals reconcile
// directly against the allocator gauges.
func (s *SessionSnapshot) Bytes() int64 {
	return int64(s.SrcLen+s.KVLen) * int64(s.Layers) * 2 * int64(s.Hidden) * kvElemBytes(s.Half)
}

// Export snapshots the session's full state as plain heap data — the
// first half of a KV hand-off. The session itself is untouched (the caller
// detaches it by closing it once the snapshot is delivered); exporting at
// an iteration boundary is the caller's responsibility, like every other
// session operation. Only open sessions export.
func (s *GenSession) Export() (*SessionSnapshot, error) {
	if s.cc == nil || s.kv == nil {
		return nil, fmt.Errorf("model: export of a closed session %d", s.ID)
	}
	layers := len(s.cc.k)
	hidden := s.cc.hidden
	snap := &SessionSnapshot{
		ID:     s.ID,
		Prompt: append([]int(nil), s.prompt...),
		Toks:   append([]int(nil), s.toks...),
		Next:   s.next,
		Pos:    s.pos,
		MaxNew: s.maxNew,
		Done:   s.done,
		Half:   s.cc.half(),
		Hidden: hidden,
		Layers: layers,
		SrcLen: s.cc.srcLen,
		KVLen:  s.kv.Len(),
	}
	// Every layer's cross memory and committed self rows, raw, flattened out
	// of their block tables. Right after prefill the self part is empty — the
	// dominant hand-off migrates only the cross memory — but a mid-flight
	// export (tests, future live migration) carries the full context.
	for l := 0; l < layers; l++ {
		k, v := s.kv.Spans(l)
		snap.CrossK = append(snap.CrossK, s.cc.k[l].Flatten(snap.SrcLen, hidden))
		snap.CrossV = append(snap.CrossV, s.cc.v[l].Flatten(snap.SrcLen, hidden))
		snap.SelfK = append(snap.SelfK, k.Flatten(snap.KVLen, hidden))
		snap.SelfV = append(snap.SelfV, v.Flatten(snap.KVLen, hidden))
	}
	return snap, nil
}

// validate checks that the snapshot is internally consistent and fits an
// engine of the given geometry and numeric route, so that nothing past this
// point — the import replay, or a later Step — can index out of range.
func (s *SessionSnapshot) validate(cfg *Config, half bool) error {
	if s.Hidden != cfg.Hidden || s.Layers != cfg.Layers {
		return fmt.Errorf("snapshot geometry %dx%d, want %dx%d", s.Layers, s.Hidden, cfg.Layers, cfg.Hidden)
	}
	if s.Half != half {
		return fmt.Errorf("snapshot numeric route half=%v, engine half=%v", s.Half, half)
	}
	if s.SrcLen < 1 || s.KVLen < 0 {
		return fmt.Errorf("snapshot holds %d cross rows and %d KV rows", s.SrcLen, s.KVLen)
	}
	if s.Next < 0 || s.Next >= cfg.Vocab || s.Pos < 0 {
		return fmt.Errorf("snapshot resumes at token %d position %d, vocab %d", s.Next, s.Pos, cfg.Vocab)
	}
	for _, part := range []struct {
		name  string
		views []kernels.KVSpans
		rows  int
	}{
		{"CrossK", s.CrossK, s.SrcLen}, {"CrossV", s.CrossV, s.SrcLen},
		{"SelfK", s.SelfK, s.KVLen}, {"SelfV", s.SelfV, s.KVLen},
	} {
		if len(part.views) != s.Layers {
			return fmt.Errorf("snapshot %s has %d layers, want %d", part.name, len(part.views), s.Layers)
		}
		for l, v := range part.views {
			if part.rows > 0 && v.Half() != half {
				return fmt.Errorf("snapshot %s layer %d stored half=%v, engine half=%v", part.name, l, v.Half(), half)
			}
			if !v.Covers(part.rows, s.Hidden) {
				return fmt.Errorf("snapshot %s layer %d does not hold %d rows of %d", part.name, l, part.rows, s.Hidden)
			}
		}
	}
	return nil
}

// ImportSession rebuilds a session from a snapshot on THIS generator's
// device — the second half of a KV hand-off. The cross cache is recreated
// and charged to the local KV gauges (newCCRef), and every self-KV row is
// replayed through the exact append/commit path local decode uses
// (EnsureAppendable → raw append → Advance), so the importing device's
// reserved and used gauges move byte-for-byte as if the session had
// decoded here from the start. The snapshot is not consumed and may be
// imported again (each import deep-copies).
//
// The destination must run the same geometry and numeric route as the
// exporter, and the snapshot must hold the rows it declares; anything else
// is rejected up front. A destination whose pool cannot supply the blocks
// returns ErrKVPoolExhausted. Every error return holds nothing.
func (g *Generator) ImportSession(snap *SessionSnapshot) (*GenSession, error) {
	if snap == nil {
		return nil, fmt.Errorf("model: import of a nil snapshot")
	}
	if err := snap.validate(&g.Cfg, g.dec.fp16); err != nil {
		return nil, fmt.Errorf("model %s: %w", g.Cfg.Name, err)
	}
	h := snap.Hidden

	kv, err := newBlockKVCache(g.pool, snap.Layers, h, snap.Half)
	if err != nil {
		return nil, err
	}
	// Replay the committed self rows through the normal append path so the
	// local gauges see exactly the charges local decode would have made.
	for t := 0; t < snap.KVLen; t++ {
		if !kv.EnsureAppendable() {
			kv.Free()
			return nil, ErrKVPoolExhausted
		}
		for l := 0; l < snap.Layers; l++ {
			kv.appendRaw(l, snap.SelfK[l], snap.SelfV[l], t)
		}
		kv.Advance()
	}

	// Rebuild the cross cache from the raw spans and account it locally.
	cc := &crossCache{srcLen: snap.SrcLen, hidden: h}
	for l := 0; l < snap.Layers; l++ {
		cc.k = append(cc.k, snap.CrossK[l].Flatten(snap.SrcLen, h))
		cc.v = append(cc.v, snap.CrossV[l].Flatten(snap.SrcLen, h))
	}
	return &GenSession{
		ID:     snap.ID,
		cc:     cc,
		ccr:    newCCRef(g.dev, cc),
		kv:     kv,
		prompt: append([]int(nil), snap.Prompt...),
		toks:   append([]int(nil), snap.Toks...),
		next:   snap.Next,
		pos:    snap.Pos,
		maxNew: snap.MaxNew,
		done:   snap.Done,
	}, nil
}
