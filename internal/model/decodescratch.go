package model

import (
	"sync"

	"repro/internal/allocator"
	"repro/internal/blas"
	"repro/internal/kernels"
)

// decodeScratchRowChunk is the row-capacity planning granularity of the
// decode workspace (batch slots); the score region's context capacity
// follows the KV cache's own growth policy (roundUpTokens: 1.2× headroom,
// chunk-rounded), so a plan survives many iterations of steady context
// growth instead of reallocating every step.
const decodeScratchRowChunk = 4

// decodeScratch is the decode-iteration workspace shared by Generator.Step
// and Decoder.stepAll: activations, attention scores, and logits for one
// ragged decode iteration, carved out of a single device-accounted buffer.
// Like the encoder's activation arena, the plan is keyed on the iteration
// shape — (rows, Σcontext) — and reused as long as the request fits, so
// decode activations show up in MemoryStats (and its reallocation traffic
// in the Malloc/Free counters) exactly like encoder activations do, and the
// decode loop stops allocating per-token activation buffers (a few small
// descriptor/score-row allocations remain on the oracle and blas paths).
//
// The mutex serialises the decode paths sharing the workspace (Generator
// iterations and BeamSearch positions on the same decoder); buffers handed
// out by plan() are valid until the next plan() call.
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
	pe                    []float32 // [hidden] position-encoding row

	// Host-side per-session gather lists for the grouped attention call
	// (pointers into KV caches, not device data) — reused across steps and
	// cleared at the end of every iteration so an idle generator does not
	// pin closed sessions' cache arrays.
	keys, vals [][]float32
	lens       []int

	// Paged-mode gather: all sessions' K/V blocks flattened (flatKB/flatVB),
	// per-session block counts, and the per-session sub-slices handed to the
	// blocked kernels. Same reuse-and-clear discipline as keys/vals.
	flatKB, flatVB [][]float32
	blkCounts      []int
	kb, vb         [][][]float32

	// fp16-route gather lists: the binary16 twins of keys/vals and the
	// flattened block tables, plus xr, the host-side scratch an activation
	// rounds into when its fp32 values are still needed.
	keysH, valsH     []blas.Half
	flatKBH, flatVBH []blas.Half
	kbh, vbh         [][]blas.Half
	xr               []float32

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
	floats := pr*h*6 + pr*inter + pr*vocab + heads*pc + h
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
	s.pe = carve(h)
	s.planRows, s.planCtx = pr, pc
}

// bytes returns the workspace's current device footprint.
func (s *decodeScratch) bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.buf == nil {
		return 0
	}
	return s.buf.Size
}

// gather resets and returns the per-session gather lists, reusing their
// backing arrays.
func (s *decodeScratch) gather() ([][]float32, [][]float32, []int) {
	s.clearGather()
	return s.keys, s.vals, s.lens
}

// gatherBlocked resets and returns the paged-mode gather lists (flattened
// block slices, per-session counts, context lengths), reusing their backing
// arrays.
func (s *decodeScratch) gatherBlocked() ([][]float32, [][]float32, []int, []int) {
	s.clearGather()
	return s.flatKB, s.flatVB, s.blkCounts, s.lens
}

// gatherF16 is gather for the binary16 route.
func (s *decodeScratch) gatherF16() ([]blas.Half, []blas.Half, []int) {
	s.clearGather()
	return s.keysH, s.valsH, s.lens
}

// gatherBlockedF16 is gatherBlocked for the binary16 route.
func (s *decodeScratch) gatherBlockedF16() ([]blas.Half, []blas.Half, []int, []int) {
	s.clearGather()
	return s.flatKBH, s.flatVBH, s.blkCounts, s.lens
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
// (truncating alone would leave stale slice headers alive in the backing
// array, keeping freed sessions' K/V storage reachable). Called with mu
// held.
func (s *decodeScratch) clearGather() {
	clearRows := func(v [][]float32) [][]float32 {
		full := v[:cap(v)]
		for i := range full {
			full[i] = nil
		}
		return v[:0]
	}
	s.keys, s.vals = clearRows(s.keys), clearRows(s.vals)
	s.flatKB, s.flatVB = clearRows(s.flatKB), clearRows(s.flatVB)
	for _, v := range [2][][][]float32{s.kb[:cap(s.kb)], s.vb[:cap(s.vb)]} {
		for i := range v {
			v[i] = nil
		}
	}
	s.kb, s.vb = s.kb[:0], s.vb[:0]
	clearHalves := func(v []blas.Half) []blas.Half {
		full := v[:cap(v)]
		for i := range full {
			full[i] = nil
		}
		return v[:0]
	}
	s.keysH, s.valsH = clearHalves(s.keysH), clearHalves(s.valsH)
	s.flatKBH, s.flatVBH = clearHalves(s.flatKBH), clearHalves(s.flatVBH)
	for _, v := range [2][][]blas.Half{s.kbh[:cap(s.kbh)], s.vbh[:cap(s.vbh)]} {
		for i := range v {
			v[i] = nil
		}
	}
	s.kbh, s.vbh = s.kbh[:0], s.vbh[:0]
	s.lens, s.blkCounts = s.lens[:0], s.blkCounts[:0]
}
