package model

import (
	"sync"

	"repro/internal/allocator"
	"repro/internal/kernels"
)

// decodeScratchRowChunk is the row-capacity planning granularity of the
// decode workspace (batch slots); the score region's context capacity
// follows the KV cache's own growth policy (roundUpTokens: 1.2× headroom,
// chunk-rounded), so a plan survives many iterations of steady context
// growth instead of reallocating every step.
const decodeScratchRowChunk = 4

// decodeScratch is Generator.Step's decode-iteration workspace:
// activations, attention scores, and logits for one ragged decode
// iteration, carved out of a single device-accounted buffer.
// Like the encoder's activation arena, the plan is keyed on the iteration
// shape — (rows, Σcontext) — and reused as long as the request fits, so
// decode activations show up in MemoryStats (and its reallocation traffic
// in the Malloc/Free counters) exactly like encoder activations do, and the
// decode loop stops allocating per-token activation buffers (a few small
// descriptor/score-row allocations remain on the oracle and blas paths).
//
// The mutex serialises Generator iterations on the same decoder; buffers
// handed out by plan() are valid until the next plan() call.
type decodeScratch struct {
	mu  sync.Mutex
	dev *allocator.Device
	buf *allocator.Buffer

	planRows int // row capacity of the current plan
	planCtx  int // Σcontext capacity of the score region

	// Regions of buf, carved at plan capacity; callers slice to their rows.
	x, q, k, v, ctx, proj []float32 // [planRows, hidden] each
	inter                 []float32 // [planRows, inter]
	logits                []float32 // [planRows, vocab]
	scores                []float32 // [heads, planCtx] concatenated ragged rows

	// Host-side per-session gather lists for one attention call (span views
	// into KV stores, not device data) — reused across steps and cleared at
	// the end of every iteration so an idle generator does not pin closed
	// sessions' storage.
	keys, vals []kernels.KVSpans
	lens       []int

	// xr is the host-side scratch an fp16-route activation rounds into when
	// its fp32 values are still needed.
	xr []float32

	// ws caches the grouped-GEMM descriptors the decode kernels build.
	ws kernels.DecodeWorkspace
}

func newDecodeScratch(dev *allocator.Device) *decodeScratch {
	if dev == nil {
		dev = allocator.NewDevice()
	}
	return &decodeScratch{dev: dev}
}

// roundUpChunk rounds n up to the chunk granularity.
func roundUpChunk(n, chunk int) int {
	if n < 1 {
		n = 1
	}
	return (n + chunk - 1) / chunk * chunk
}

// plan ensures the workspace covers a decode iteration of `rows` sessions
// whose attention score rows span at most sumCtx context tokens, replanning
// (one device Free+Malloc, visible in the traffic counters) only when the
// key outgrows the current plan. Must be called with mu held.
func (s *decodeScratch) plan(cfg *Config, rows, sumCtx int) {
	if s.buf != nil && rows <= s.planRows && sumCtx <= s.planCtx {
		return
	}
	pr := roundUpChunk(rows, decodeScratchRowChunk)
	// Headroom past the requested Σcontext: self-attention context grows by
	// `rows` tokens per iteration, so the KV cache's growth policy (20%
	// slack, chunk-rounded) keeps replans logarithmically spaced too.
	pc := roundUpTokens(sumCtx)
	if pr < s.planRows {
		pr = s.planRows
	}
	if pc < s.planCtx {
		pc = s.planCtx
	}
	h, inter, vocab, heads := cfg.Hidden, cfg.Inter, cfg.Vocab, cfg.Heads
	floats := pr*h*6 + pr*inter + pr*vocab + heads*pc
	if s.buf != nil {
		s.dev.Free(s.buf)
	}
	s.buf = s.dev.Malloc(int64(floats) * 4)
	data := s.buf.Data()
	carve := func(n int) []float32 {
		out := data[:n]
		data = data[n:]
		return out
	}
	s.x, s.q, s.k, s.v = carve(pr*h), carve(pr*h), carve(pr*h), carve(pr*h)
	s.ctx, s.proj = carve(pr*h), carve(pr*h)
	s.inter = carve(pr * inter)
	s.logits = carve(pr * vocab)
	s.scores = carve(heads * pc)
	s.planRows, s.planCtx = pr, pc
}

// roundedIn returns the rounded-activation scratch sized for n elements,
// growing it as needed. Must be called with mu held; the slice is valid
// until the next roundedIn call.
func (s *decodeScratch) roundedIn(n int) []float32 {
	if cap(s.xr) < n {
		s.xr = make([]float32, n)
	}
	return s.xr[:n]
}

// clearGather drops the KV references collected during an iteration
// (truncating alone would leave stale views alive in the backing arrays,
// keeping freed sessions' K/V storage reachable). Called with mu held.
func (s *decodeScratch) clearGather() {
	clear(s.keys[:cap(s.keys)])
	clear(s.vals[:cap(s.vals)])
	s.keys, s.vals, s.lens = s.keys[:0], s.vals[:0], s.lens[:0]
}
