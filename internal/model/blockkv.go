package model

import (
	"fmt"

	"repro/internal/allocator"
	"repro/internal/kernels"
)

// BlockKVCache is one generation request's self-attention key/value store:
// fixed-size blocks from a shared allocator.BlockPool instead of contiguous
// per-request buffers reserved worst-case. Per layer it keeps two block
// tables (K and V); block b holds rows [b*blockTok, (b+1)*blockTok). Blocks
// are acquired only as decode depth actually reaches them, so a request
// that stops early never claimed the pool space its budget implied —
// admission can pack by actual consumption.
//
// Sharing: MapFrom adopts another cache's blocks by reference (prompt-hash
// prefix sharing), and owned[] tracks write permission per block index. A
// block that is shared — or adopted at all, since it may hold donor rows
// past the mapped length — is read-only; EnsureAppendable copy-on-writes
// the tail before the next append, so appends never mutate bytes any other
// holder can see.
//
// Accounting: the pool charges the device's KV-reserved gauge per block
// held (once, however many caches share it) and the KV-used gauge per
// committed row (Advance → pool.Commit). An eviction at any point — even
// between AppendRow and Advance — releases blocks whose committed payload
// is exactly what was charged, so the gauges return to zero.
//
// A BlockKVCache is confined to the decode loop's goroutine.
type BlockKVCache struct {
	pool     *allocator.BlockPool
	hidden   int
	half     bool // binary16 rows: 2 bytes/element, double the tokens per block
	blockTok int
	k, v     [][]*allocator.Block // [layer][block]
	ks, vs   []kernels.KVSpans    // [layer]: one span per block of k, v (Rows = blockTok)
	owned    [][]bool             // [layer][block]: this cache may write K and V there
	length   int                  // committed rows

	// Invariant outside EnsureAppendable: len(k[l]) == len(v[l]) ==
	// ceil(length'/blockTok) where length' is length or length+1 if a
	// boundary block was pre-acquired for the in-flight step.
}

// NewBlockKVCache opens an empty paged cache on pool. The pool's block size
// must be a whole number of [hidden]float32 rows. No blocks are acquired
// until the first EnsureAppendable.
func NewBlockKVCache(pool *allocator.BlockPool, layers, hidden int) (*BlockKVCache, error) {
	return newBlockKVCache(pool, layers, hidden, false)
}

// NewBlockKVCacheF16 opens an empty paged cache with binary16 rows: the same
// pool blocks hold twice the tokens, so the same device budget admits ~2×
// the sessions. The pool block size is unchanged — only blockTok doubles.
func NewBlockKVCacheF16(pool *allocator.BlockPool, layers, hidden int) (*BlockKVCache, error) {
	return newBlockKVCache(pool, layers, hidden, true)
}

func newBlockKVCache(pool *allocator.BlockPool, layers, hidden int, half bool) (*BlockKVCache, error) {
	if layers <= 0 || hidden <= 0 {
		return nil, fmt.Errorf("model: invalid paged KV geometry layers=%d hidden=%d", layers, hidden)
	}
	rowBytes := int64(hidden) * kvElemBytes(half)
	if pool.BlockBytes() < rowBytes || pool.BlockBytes()%rowBytes != 0 {
		return nil, fmt.Errorf("model: pool block %d bytes not a multiple of the %d-byte KV row",
			pool.BlockBytes(), rowBytes)
	}
	c := &BlockKVCache{
		pool:     pool,
		hidden:   hidden,
		half:     half,
		blockTok: int(pool.BlockBytes() / rowBytes),
		k:        make([][]*allocator.Block, layers),
		v:        make([][]*allocator.Block, layers),
		ks:       make([]kernels.KVSpans, layers),
		vs:       make([]kernels.KVSpans, layers),
		owned:    make([][]bool, layers),
	}
	for l := range c.ks {
		c.ks[l].Rows, c.vs[l].Rows = c.blockTok, c.blockTok
	}
	return c, nil
}

// setBlock installs b as block bi of layer l's K (or V) table — appending
// when bi is one past the end — and points the matching span at it.
func (c *BlockKVCache) setBlock(l int, isV bool, bi int, b *allocator.Block) {
	table, view := &c.k[l], &c.ks[l]
	if isV {
		table, view = &c.v[l], &c.vs[l]
	}
	*table = setAt(*table, bi, b)
	if c.half {
		view.F16 = setAt(view.F16, bi, b.DataU16())
	} else {
		view.F32 = setAt(view.F32, bi, b.Data())
	}
}

// setAt sets list[i], appending when i is one past the end.
func setAt[T any](list []T, i int, v T) []T {
	if i == len(list) {
		return append(list, v)
	}
	list[i] = v
	return list
}

// rowBytes returns the committed size of one [hidden] row.
func (c *BlockKVCache) rowBytes() int64 { return int64(c.hidden) * kvElemBytes(c.half) }

// BlockTokens returns the pool's block size in rows.
func (c *BlockKVCache) BlockTokens() int { return c.blockTok }

// Len returns the number of committed tokens.
func (c *BlockKVCache) Len() int { return c.length }

// Blocks returns how many pool blocks the cache currently holds.
func (c *BlockKVCache) Blocks() int {
	n := 0
	for l := range c.k {
		n += len(c.k[l]) + len(c.v[l])
	}
	return n
}

// MapFrom adopts the first rows committed rows of src by reference: every
// covering block is retained, not copied, and marked read-only for this
// cache (the tail copy-on-writes at the first append). Only an empty cache
// can map, and src must have the rows committed. The KV-used gauge does not
// move — the rows exist physically once.
func (c *BlockKVCache) MapFrom(src *BlockKVCache, rows int) error {
	if c.length != 0 || c.Blocks() != 0 {
		return fmt.Errorf("model: MapFrom into a non-empty paged cache")
	}
	if src.pool != c.pool || src.hidden != c.hidden || src.half != c.half || len(src.k) != len(c.k) {
		return fmt.Errorf("model: MapFrom across incompatible caches")
	}
	if rows < 0 || rows > src.length {
		return fmt.Errorf("model: MapFrom %d rows from a %d-row cache", rows, src.length)
	}
	if rows == 0 {
		return nil
	}
	nb := (rows + c.blockTok - 1) / c.blockTok
	for l := range c.k {
		for b := 0; b < nb; b++ {
			c.pool.Retain(src.k[l][b])
			c.pool.Retain(src.v[l][b])
			c.setBlock(l, false, b, src.k[l][b])
			c.setBlock(l, true, b, src.v[l][b])
			c.owned[l] = append(c.owned[l], false)
		}
	}
	c.length = rows
	return nil
}

// EnsureAppendable guarantees the next AppendRow/Advance round has an
// exclusively writable row in every layer's K and V: it acquires boundary
// blocks when length sits on a block edge and copy-on-writes any tail block
// this cache cannot write. All-or-nothing: when the pool cannot supply
// every needed block it returns false with the cache unchanged — the
// serving loop's cue to scavenge the prefix cache or preempt a session and
// retry. Idempotent: need is re-derived from committed state, so calling it
// again after a mid-step eviction or a false return is safe.
func (c *BlockKVCache) EnsureAppendable() bool {
	bi := c.length / c.blockTok

	// Phase 1: derive the work list from committed state.
	type work struct {
		layer int
		isV   bool
		cow   bool // replace the read-only tail (vs append a fresh boundary block)
	}
	var items []work
	for l := range c.k {
		for _, isV := range [2]bool{false, true} {
			table := c.k[l]
			if isV {
				table = c.v[l]
			}
			switch {
			case len(table) <= bi:
				items = append(items, work{l, isV, false})
			case !c.owned[l][bi] || table[bi].Shared():
				items = append(items, work{l, isV, true})
			}
		}
	}
	if len(items) == 0 {
		return true
	}

	// Phase 2: acquire every block, or release what was acquired and fail
	// with the tables untouched.
	blocks := make([]*allocator.Block, len(items))
	for i, w := range items {
		var b *allocator.Block
		if w.cow {
			b = c.pool.AllocCoW()
		} else {
			b = c.pool.Alloc()
		}
		if b == nil {
			for _, a := range blocks[:i] {
				c.pool.Release(a)
			}
			return false
		}
		blocks[i] = b
	}

	// Phase 3: apply (infallible). A copy-on-write replaces the read-only
	// tail with a private copy of its committed rows.
	tail := c.length % c.blockTok
	for i, w := range items {
		b := blocks[i]
		if w.cow {
			old := c.k[w.layer][bi]
			if w.isV {
				old = c.v[w.layer][bi]
			}
			if n := tail * c.hidden; c.half {
				copy(b.DataU16()[:n], old.DataU16()[:n])
			} else {
				copy(b.Data()[:n], old.Data()[:n])
			}
			c.pool.Commit(b, int64(tail)*c.rowBytes())
			c.pool.Release(old)
		}
		c.setBlock(w.layer, w.isV, bi, b)
	}
	for l := range c.owned {
		for len(c.owned[l]) <= bi {
			c.owned[l] = append(c.owned[l], false)
		}
		c.owned[l][bi] = true
	}
	return true
}

// AppendRow stores one token's K and V rows for the given layer at the next
// position; every layer appends exactly once per step, then Advance
// commits the token. The caller must have run
// EnsureAppendable for this step; appending without capacity or into a
// block another cache can see panics. Gauges do not move until Advance.
func (c *BlockKVCache) AppendRow(layer int, kRow, vRow []float32) {
	if len(kRow) != c.hidden || len(vRow) != c.hidden {
		panic(fmt.Sprintf("model: KV row size %d/%d, want %d", len(kRow), len(vRow), c.hidden))
	}
	c.checkWritable(layer)
	c.ks[layer].PutRow(c.length, kRow)
	c.vs[layer].PutRow(c.length, vRow)
}

// appendRaw is AppendRow for row t of two views already in this cache's
// storage format (import): storage words are copied untouched. Same
// EnsureAppendable contract.
func (c *BlockKVCache) appendRaw(layer int, k, v kernels.KVSpans, t int) {
	c.checkWritable(layer)
	c.ks[layer].CopyRow(c.length, k, t, c.hidden)
	c.vs[layer].CopyRow(c.length, v, t, c.hidden)
}

// checkWritable panics unless the next row's block exists in layer's K and V
// tables and no other holder can see it.
func (c *BlockKVCache) checkWritable(layer int) {
	bi := c.length / c.blockTok
	kt, vt := c.k[layer], c.v[layer]
	if bi >= len(kt) || bi >= len(vt) || !c.owned[layer][bi] {
		panic("model: append without EnsureAppendable")
	}
	if kt[bi].Shared() || vt[bi].Shared() {
		panic("model: append into a shared block")
	}
}

// Advance commits the row appended to every layer this step, charging the
// KV-used gauge one row across all layers' K and V blocks.
func (c *BlockKVCache) Advance() {
	bi := c.length / c.blockTok
	rb := c.rowBytes()
	for l := range c.k {
		c.pool.Commit(c.k[l][bi], rb)
		c.pool.Commit(c.v[l][bi], rb)
	}
	c.length++
}

// Spans returns layer l's K and V as one span per held block — each a
// full-capacity block slice the attention kernel reads straight through, no
// gather copy.
func (c *BlockKVCache) Spans(l int) (k, v kernels.KVSpans) { return c.ks[l], c.vs[l] }

// Free releases every held block back to the pool (the pool adjusts both
// gauges for blocks whose last holder leaves). Idempotent.
func (c *BlockKVCache) Free() {
	if c.k == nil {
		return
	}
	for l := range c.k {
		for _, b := range c.k[l] {
			c.pool.Release(b)
		}
		for _, b := range c.v[l] {
			c.pool.Release(b)
		}
	}
	c.k, c.v, c.ks, c.vs, c.owned = nil, nil, nil, nil, nil
	c.length = 0
}
