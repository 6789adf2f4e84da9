package model

// kvElemBytes is the storage width of one KV element: 4 for fp32, 2 for the
// binary16 fast path. Halving this is exactly the "~2× KV capacity" lever —
// every gauge and block's token count scales with it.
func kvElemBytes(half bool) int64 {
	if half {
		return 2
	}
	return 4
}

// KVChunkTokens is the KV block size: one pool block of a Generator holds
// KVChunkTokens fp32 rows of one layer's K or V (twice that in binary16).
// Like Algorithm 1's 2 MB activation chunks, a fixed chunk bounds allocation
// traffic while keeping slack proportional to the chunk, not the sequence;
// the decode scratch grows its context capacity in the same chunks
// (roundUpTokens).
const KVChunkTokens = 32

// kvGrowthNum/kvGrowthDen mirror the allocator's K_SCALE = 1.2: when a
// workspace must grow, reserve 20% headroom past the requested length so
// steady token-by-token growth does not reallocate every chunk boundary.
// Integer math keeps the policy exact (and overflow-checkable) at any size.
const (
	kvGrowthNum = 6
	kvGrowthDen = 5
)

// maxKVTokens bounds the token counts roundUpTokens scales: past it the
// headroom is skipped rather than overflowing int.
const maxKVTokens = 1 << 40

// roundUpTokens applies the growth policy: headroom-scaled and rounded to
// the chunk granularity, clamped so the result never exceeds maxKVTokens
// (token counts near the cap skip the headroom rather than overflow).
func roundUpTokens(need int) int {
	if need < 1 {
		need = 1
	}
	if need > maxKVTokens {
		return need // never scale past the cap
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
