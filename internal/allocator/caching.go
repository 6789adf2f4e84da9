package allocator

import "sort"

// CachingAllocator models the PyTorch / NVlab-cub caching device allocator
// the paper describes (§4.2): tensors are malloc'd as ops execute and freed
// when their last consumer retires, but "freed" blocks go to a size-bucketed
// cache instead of back to the device. The cache only grows — after a long
// request the footprint stays at its peak (Fig. 11), while device-level
// alloc traffic drops to zero once the cache covers the working set
// (Fig. 12).
//
// Crucially it is graph-oblivious: blocks are matched by size alone, so
// tensors with disjoint lifetimes but different sizes cannot share space the
// way the graph-aware planners arrange.
type CachingAllocator struct {
	dev *Device
	// cache holds free blocks sorted by size (best-fit lower bound search).
	cache []*Buffer
	// roundTo mimics PyTorch's 512-byte size rounding.
	roundTo int64
}

// NewCaching returns a caching allocator drawing from dev.
func NewCaching(dev *Device) *CachingAllocator {
	return &CachingAllocator{dev: dev, roundTo: 512}
}

// Name implements Allocator.
func (a *CachingAllocator) Name() string { return "PyTorch" }

// largePoolThreshold and largePoolRound mimic PyTorch's split pools:
// requests above 1 MB are served from the large pool in 2 MB multiples.
const (
	largePoolThreshold = 1 << 20
	largePoolRound     = 2 << 20
)

func (a *CachingAllocator) round(size int64) int64 {
	if size == 0 {
		return a.roundTo
	}
	if size > largePoolThreshold {
		return (size + largePoolRound - 1) / largePoolRound * largePoolRound
	}
	return (size + a.roundTo - 1) / a.roundTo * a.roundTo
}

// acquire takes the smallest cached block that fits, or mallocs a new one.
func (a *CachingAllocator) acquire(size int64) *Buffer {
	size = a.round(size)
	i := sort.Search(len(a.cache), func(i int) bool { return a.cache[i].Size >= size })
	if i < len(a.cache) {
		b := a.cache[i]
		a.cache = append(a.cache[:i], a.cache[i+1:]...)
		return b
	}
	return a.dev.Malloc(size)
}

// recycle returns a block to the cache (never to the device).
func (a *CachingAllocator) recycle(b *Buffer) {
	i := sort.Search(len(a.cache), func(i int) bool { return a.cache[i].Size >= b.Size })
	a.cache = append(a.cache, nil)
	copy(a.cache[i+1:], a.cache[i:])
	a.cache[i] = b
}

// Plan replays the inference's op-ordered malloc/free stream: at op i,
// tensors born at i acquire blocks; tensors whose last use is i recycle
// theirs. Each tensor occupies a whole block (chunk index = block).
func (a *CachingAllocator) Plan(records []UsageRecord) *Plan {
	maxOp := 0
	for _, r := range records {
		if r.LastOp > maxOp {
			maxOp = r.LastOp
		}
	}
	bornAt := map[int][]UsageRecord{}
	diesAt := map[int][]UsageRecord{}
	for _, r := range records {
		bornAt[r.FirstOp] = append(bornAt[r.FirstOp], r)
		diesAt[r.LastOp] = append(diesAt[r.LastOp], r)
	}
	// Deterministic order within an op.
	for _, m := range []map[int][]UsageRecord{bornAt, diesAt} {
		for _, rs := range m {
			sort.Slice(rs, func(i, j int) bool { return rs[i].TensorID < rs[j].TensorID })
		}
	}

	plan := &Plan{Assignments: make(map[int]Assignment, len(records))}
	held := map[int]*Buffer{}
	for op := 0; op <= maxOp; op++ {
		for _, r := range bornAt[op] {
			b := a.acquire(r.Size)
			held[r.TensorID] = b
			plan.Assignments[r.TensorID] = Assignment{Chunk: len(plan.Chunks), Offset: 0}
			plan.Chunks = append(plan.Chunks, b)
		}
		for _, r := range diesAt[op] {
			if b, ok := held[r.TensorID]; ok {
				a.recycle(b)
				delete(held, r.TensorID)
			}
		}
	}
	// Anything still held (e.g. outputs) recycles at the end of inference.
	for id, b := range held {
		a.recycle(b)
		delete(held, id)
	}
	return plan
}

// Release implements Allocator: return the whole cache to the device
// (PyTorch's torch.cuda.empty_cache()).
func (a *CachingAllocator) Release() {
	for _, b := range a.cache {
		a.dev.Free(b)
	}
	a.cache = nil
}
