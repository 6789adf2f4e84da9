package model

import (
	"fmt"

	"repro/internal/allocator"
	"repro/internal/kernels"
)

// kvStore is the surface a session's self-attention KV presents to the
// decode path, whichever store holds it — KVCache (one contiguous span per
// layer) or BlockKVCache (one span per pool block). Step, export and import
// are written once against it.
type kvStore interface {
	// EnsureAppendable reserves room for the next row in every layer,
	// returning false (store unchanged) when it cannot.
	EnsureAppendable() bool
	// AppendRow stores one token's fp32 K and V rows for a layer at the next
	// position (cast to binary16 by a half store); appendRaw stores row t of
	// two views of the store's own format as raw words (import).
	AppendRow(layer int, kRow, vRow []float32)
	appendRaw(layer int, k, v kernels.KVSpans, t int)
	// Advance commits the row appended to every layer this step.
	Advance()
	Len() int
	Bytes() int64
	Free()
	// Spans returns layer l's K and V views; they hold Len() committed rows
	// plus the row appended but not yet advanced, if any.
	Spans(l int) (k, v kernels.KVSpans)
}

// storage is what both device allocations (Buffer, Block) offer a span.
type storage interface {
	Data() []float32
	DataU16() []uint16
}

// copyWords copies the first n storage words of src into dst.
func copyWords(dst, src storage, n int, half bool) {
	if half {
		copy(dst.DataU16()[:n], src.DataU16()[:n])
		return
	}
	copy(dst.Data()[:n], src.Data()[:n])
}

// setSpan points span i of the view at st's backing array (appending when i
// is one past the end), keeping a store's views in step with its buffers or
// block table. An allocation is one format for its whole lifetime.
func setSpan(s *kernels.KVSpans, i int, st storage, half bool) {
	if half {
		s.F16 = setAt(s.F16, i, st.DataU16())
	} else {
		s.F32 = setAt(s.F32, i, st.Data())
	}
}

func setAt[T any](list []T, i int, v T) []T {
	if i == len(list) {
		return append(list, v)
	}
	list[i] = v
	return list
}

// kvElemBytes is the storage width of one KV element: 4 for fp32, 2 for the
// binary16 fast path. Halving this is exactly the "~2× KV capacity" lever —
// every gauge, grant, and buffer size scales with it.
func kvElemBytes(half bool) int64 {
	if half {
		return 2
	}
	return 4
}

// KVChunkTokens is the granularity of KV-cache capacity growth. Like
// Algorithm 1's 2 MB activation chunks, growing in fixed token chunks
// bounds reallocation traffic while keeping slack proportional to the
// chunk, not the sequence. It is also the block size of the paged
// BlockKVCache — one block holds KVChunkTokens rows of one layer's K or V.
const KVChunkTokens = 32

// kvGrowthNum/kvGrowthDen mirror the allocator's K_SCALE = 1.2: when a
// cache must grow, reserve 20% headroom past the requested length so steady
// token-by-token growth does not reallocate every chunk boundary exactly.
// Integer math keeps the policy exact (and overflow-checkable) at any size.
const (
	kvGrowthNum = 6
	kvGrowthDen = 5
)

// maxKVTokens bounds a single cache's token capacity. Device KV budgets are
// int64 bytes while token arithmetic is int; an adversarially large
// expectTokens must be rejected up front (NewKVCache returns an error)
// rather than overflowing into a negative Malloc panic.
const maxKVTokens = 1 << 40

// KVCache is one generation request's self-attention key/value store: per
// layer, a contiguous [tokens, hidden] K and V region. The backing buffers
// are drawn from the simulated device (internal/allocator), so per-request
// KV footprint and reallocation traffic show up in the same Snapshot
// counters the paper's Figures 11–12 track for activations.
//
// Capacity is sequence-length-aware: a session opens with room for its
// expected total length (prompt-proportional, like the paper's zh→en ≈1:1
// heuristic), so the common case never reallocates mid-generation.
//
// Reservation accounting: the device's KV-reserved gauge is charged for
// exactly the admission grant (expectTokens rows) — NOT the chunk-rounded,
// headroom-scaled buffer capacity — so the gauge and the continuous
// scheduler's token ledger are the same figure in different units. Buffer
// slack past the grant is visible in LiveBytes, where capacity belongs. If
// a cache ever outgrows its grant (admission under-budgeted), the
// reservation extends row by row so used ≤ reserved stays invariant.
type KVCache struct {
	dev         *allocator.Device
	hidden      int
	half        bool                // binary16 storage (fp16 fast path): 2 bytes/element
	k, v        []*allocator.Buffer // one per layer
	ks, vs      []kernels.KVSpans   // one-span views over k, v, built by Spans
	length      int                 // tokens currently stored
	capTok      int                 // token capacity of every buffer
	reservedTok int                 // tokens charged to the KV-reserved gauge
}

func (c *KVCache) elemBytes() int64 { return kvElemBytes(c.half) }

// roundUpTokens applies the growth policy: headroom-scaled and rounded to
// the chunk granularity, clamped so the result never exceeds maxKVTokens
// (token counts near the cap skip the headroom rather than overflow).
func roundUpTokens(need int) int {
	if need < 1 {
		need = 1
	}
	if need > maxKVTokens {
		return need // caller validates against the budget; never scale past it
	}
	scaled := need / kvGrowthDen * kvGrowthNum
	if rem := need % kvGrowthDen; rem > 0 {
		scaled += rem * kvGrowthNum / kvGrowthDen
	}
	if scaled > maxKVTokens {
		scaled = maxKVTokens
	}
	return (scaled + KVChunkTokens - 1) / KVChunkTokens * KVChunkTokens
}

// kvBufferBytes returns the byte size of one layer's K (or V) buffer for
// tokens rows at the given element width, or an error when the size cannot
// be represented.
func kvBufferBytes(tokens, hidden int, elemBytes int64) (int64, error) {
	if tokens < 0 || tokens > maxKVTokens {
		return 0, fmt.Errorf("model: KV token count %d outside [0, %d]", tokens, maxKVTokens)
	}
	bytes := int64(tokens) * int64(hidden) * elemBytes
	if hidden > 0 && bytes/int64(hidden)/elemBytes != int64(tokens) {
		return 0, fmt.Errorf("model: KV buffer size overflows (%d tokens × hidden %d)", tokens, hidden)
	}
	return bytes, nil
}

// NewKVCache reserves device-accounted K/V storage for layers decoder
// layers with the given hidden size, sized for expectTokens total tokens —
// the admission grant. A grant the device budget cannot represent is
// rejected with an error instead of panicking inside Malloc.
func NewKVCache(dev *allocator.Device, layers, hidden, expectTokens int) (*KVCache, error) {
	return newKVCache(dev, layers, hidden, expectTokens, false)
}

// NewKVCacheF16 is NewKVCache with binary16 storage: half the bytes per
// token flow through every gauge, so the same device budget admits ~2× the
// sessions.
func NewKVCacheF16(dev *allocator.Device, layers, hidden, expectTokens int) (*KVCache, error) {
	return newKVCache(dev, layers, hidden, expectTokens, true)
}

func newKVCache(dev *allocator.Device, layers, hidden, expectTokens int, half bool) (*KVCache, error) {
	if layers <= 0 || hidden <= 0 {
		return nil, fmt.Errorf("model: invalid KV cache geometry layers=%d hidden=%d", layers, hidden)
	}
	if expectTokens < 1 {
		expectTokens = 1
	}
	if expectTokens > maxKVTokens {
		return nil, fmt.Errorf("model: KV grant %d tokens exceeds the %d-token device budget", expectTokens, maxKVTokens)
	}
	capTok := roundUpTokens(expectTokens)
	c := &KVCache{dev: dev, hidden: hidden, half: half, capTok: capTok, reservedTok: expectTokens}
	bytes, err := kvBufferBytes(capTok, hidden, c.elemBytes())
	if err != nil {
		return nil, err
	}
	// Whole-cache footprint must be representable too: 2 buffers × layers.
	if total := bytes * 2 * int64(layers); bytes != 0 && total/bytes != 2*int64(layers) {
		return nil, fmt.Errorf("model: KV cache footprint overflows (%d layers × %d bytes)", layers, bytes)
	}
	c.ks, c.vs = make([]kernels.KVSpans, layers), make([]kernels.KVSpans, layers)
	for l := 0; l < layers; l++ {
		c.k = append(c.k, dev.Malloc(bytes))
		c.v = append(c.v, dev.Malloc(bytes))
	}
	// The reservation gauge carries exactly what admission control granted;
	// Advance moves bytes from reserved-only to used.
	dev.AddKVReserved(int64(c.reservedTok) * c.rowBytes())
	return c, nil
}

// rowBytes is the device footprint one committed token adds across all
// layers' K and V buffers.
func (c *KVCache) rowBytes() int64 {
	return int64(len(c.k)) * 2 * int64(c.hidden) * c.elemBytes()
}

// UsedBytes returns the bytes actually occupied by committed context rows
// (≤ ReservedBytes()).
func (c *KVCache) UsedBytes() int64 {
	return int64(c.length) * c.rowBytes()
}

// ReservedBytes returns the bytes charged to the device's KV-reserved
// gauge: the admission grant (extended only if the cache outgrew it).
func (c *KVCache) ReservedBytes() int64 {
	return int64(c.reservedTok) * c.rowBytes()
}

// Len returns the number of tokens stored.
func (c *KVCache) Len() int { return c.length }

// CapTokens returns the current token capacity.
func (c *KVCache) CapTokens() int { return c.capTok }

// Bytes returns the cache's total device footprint (capacity, ≥ the
// reservation — chunk rounding and growth headroom live here).
func (c *KVCache) Bytes() int64 {
	var total int64
	for _, b := range c.k {
		total += b.Size
	}
	for _, b := range c.v {
		total += b.Size
	}
	return total
}

// grow reallocates every layer's buffers to hold at least need tokens,
// copying live rows. The Malloc/Free pair is visible in the device's
// traffic counters, exactly like a chunk reallocation in Algorithm 1.
func (c *KVCache) grow(need int) {
	newCap := roundUpTokens(need)
	bytes, err := kvBufferBytes(newCap, c.hidden, c.elemBytes())
	if err != nil {
		panic(fmt.Sprintf("model: KV growth past validated grant: %v", err))
	}
	c.capTok = newCap
	live := c.length * c.hidden
	for l := range c.k {
		nk, nv := c.dev.Malloc(bytes), c.dev.Malloc(bytes)
		copyWords(nk, c.k[l], live, c.half)
		copyWords(nv, c.v[l], live, c.half)
		c.dev.Free(c.k[l])
		c.dev.Free(c.v[l])
		c.k[l], c.v[l] = nk, nv
	}
}

// AppendRow stores one token's K and V rows for the given layer at the
// next position. Every layer must append exactly once per step, then
// Advance commits the token. Appending never touches the KV gauges — an
// eviction between AppendRow and Advance (mid-step cancel or deadline)
// releases exactly what was reserved and committed, nothing more.
func (c *KVCache) AppendRow(layer int, kRow, vRow []float32) {
	if len(kRow) != c.hidden || len(vRow) != c.hidden {
		panic(fmt.Sprintf("model: KV row size %d/%d, want %d", len(kRow), len(vRow), c.hidden))
	}
	c.EnsureAppendable()
	k, v := c.Spans(layer)
	k.PutRow(c.length, kRow)
	v.PutRow(c.length, vRow)
}

// appendRaw is AppendRow for row t of two views already in this cache's
// storage format — the import-side twin, copying storage words untouched.
func (c *KVCache) appendRaw(layer int, k, v kernels.KVSpans, t int) {
	c.EnsureAppendable()
	dk, dv := c.Spans(layer)
	dk.CopyRow(c.length, k, t, c.hidden)
	dv.CopyRow(c.length, v, t, c.hidden)
}

// EnsureAppendable grows the buffers when the next row would not fit. A
// contiguous cache draws straight from the device, so it always succeeds.
func (c *KVCache) EnsureAppendable() bool {
	if c.length+1 > c.capTok {
		c.grow(c.length + 1)
	}
	return true
}

// Advance commits the row appended to every layer this step. A session
// that outgrows its admission grant extends the reservation row by row, so
// the used gauge can never exceed the reserved gauge.
func (c *KVCache) Advance() {
	c.length++
	if c.length > c.reservedTok {
		c.reservedTok = c.length
		c.dev.AddKVReserved(c.rowBytes())
	}
	c.dev.AddKVUsed(c.rowBytes())
}

// Spans returns layer l's K and V as one-span views over the whole buffers.
// The views are built at first use and rebuilt after a grow (Rows tracks the
// capacity they were built at), so a cache that is reserved but never read
// or written never materialises its buffers' backing arrays.
func (c *KVCache) Spans(l int) (k, v kernels.KVSpans) {
	if c.ks[l].Rows != c.capTok {
		c.ks[l], c.vs[l] = kernels.KVSpans{Rows: c.capTok}, kernels.KVSpans{Rows: c.capTok}
		setSpan(&c.ks[l], 0, c.k[l], c.half)
		setSpan(&c.vs[l], 0, c.v[l], c.half)
	}
	return c.ks[l], c.vs[l]
}

// Free returns all buffers to the device (request evicted or finished) and
// releases the reservation and usage gauges — exactly the bytes charged,
// whatever state the cache is in (including between AppendRow and
// Advance). Idempotent.
func (c *KVCache) Free() {
	if c.k == nil {
		return
	}
	c.dev.AddKVReserved(-c.ReservedBytes())
	c.dev.AddKVUsed(-c.UsedBytes())
	for l := range c.k {
		c.dev.Free(c.k[l])
		c.dev.Free(c.v[l])
	}
	c.k, c.v, c.ks, c.vs = nil, nil, nil, nil
	c.length, c.capTok, c.reservedTok = 0, 0, 0
}
