package allocator

import (
	"sort"
)

// Paper constants (§4.2): chunks default to 2 MB, and a chunk created for an
// oversized tensor gets 20% headroom.
const (
	DefaultChunkSize = 2 * 1024 * 1024
	KScale           = 1.2
)

// placed is a tensor already assigned into a chunk during the current
// planning round.
type placed struct {
	rec    UsageRecord
	offset int64
}

// chunk is one cached device block plus the tensors planned into it for the
// current inference.
type chunk struct {
	buf     *Buffer
	records []placed // sorted by offset
	idle    int      // consecutive inferences without a tensor assigned
}

// TurboAllocator is the sequence-length-aware allocator of Algorithm 1.
// It keeps a list of cached chunks across inferences; each Plan call
// recomputes every tensor's (chunk, offset) from the computation graph's
// lifetime records, reusing gaps left by tensors whose lifetimes do not
// overlap, and releases chunks the serving stream no longer needs.
//
// Release policy (§4.2): by default an unused chunk is freed immediately
// after the inference ("its memory is released immediately"); the paper's
// alternative — "assign each chunk a maximum inference idle times, and
// release it after it reaches the time limit" — is available via
// WithIdleTTL, trading footprint for fewer reallocations on bursty
// length distributions.
type TurboAllocator struct {
	dev       *Device
	chunks    []*chunk
	chunkSize int64
	kScale    float64
	idleTTL   int
}

// NewTurbo returns a TurboAllocator drawing from dev with the paper's
// default parameters.
func NewTurbo(dev *Device) *TurboAllocator {
	return &TurboAllocator{dev: dev, chunkSize: DefaultChunkSize, kScale: KScale}
}

// NewTurboWithParams allows the chunk-size / K_SCALE ablation benchmarks to
// sweep the constants.
func NewTurboWithParams(dev *Device, chunkSize int64, kScale float64) *TurboAllocator {
	if chunkSize <= 0 || kScale < 1 {
		panic("allocator: invalid turbo parameters")
	}
	return &TurboAllocator{dev: dev, chunkSize: chunkSize, kScale: kScale}
}

// WithIdleTTL switches to the paper's alternative release policy: a chunk
// is freed only after ttl consecutive inferences without use (ttl=0 is the
// default immediate release). Returns the allocator for chaining.
func (a *TurboAllocator) WithIdleTTL(ttl int) *TurboAllocator {
	if ttl < 0 {
		panic("allocator: negative idle TTL")
	}
	a.idleTTL = ttl
	return a
}

// Name implements Allocator.
func (a *TurboAllocator) Name() string { return "Turbo" }

// findGapFromChunk implements FindGapFromChunk of Algorithm 1: scan the
// chunk's already-placed records in offset order, considering only those
// whose lifetime overlaps t, and return the smallest gap that fits t
// (or -1 if none).
func findGapFromChunk(t UsageRecord, c *chunk) int64 {
	chunkSize := c.buf.Size
	var (
		smallestGap = int64(1)<<62 - 1
		prevOffset  int64
		bestOffset  int64 = -1
	)
	for _, x := range c.records {
		if !t.overlaps(x.rec) {
			continue // disjoint lifetimes may share space: ignore for gaps
		}
		gap := x.offset - prevOffset
		if gap >= t.Size && gap < smallestGap {
			smallestGap = gap
			bestOffset = prevOffset
		}
		if end := x.offset + x.rec.Size; end > prevOffset {
			prevOffset = end
		}
	}
	if bestOffset < 0 && chunkSize-prevOffset >= t.Size {
		bestOffset = prevOffset
	}
	return bestOffset
}

// insertPlaced keeps the chunk's record list sorted by offset.
func (c *chunk) insertPlaced(rec UsageRecord, offset int64) {
	i := sort.Search(len(c.records), func(i int) bool { return c.records[i].offset >= offset })
	c.records = append(c.records, placed{})
	copy(c.records[i+1:], c.records[i:])
	c.records[i] = placed{rec: rec, offset: offset}
}

// Plan implements MemAllocate of Algorithm 1.
func (a *TurboAllocator) Plan(records []UsageRecord) *Plan {
	// Start a fresh planning round: previous inference's placements expire.
	for _, c := range a.chunks {
		c.records = c.records[:0]
	}

	// Sort usage records in decreasing order of size (ties broken by id for
	// determinism).
	sorted := append([]UsageRecord(nil), records...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Size != sorted[j].Size {
			return sorted[i].Size > sorted[j].Size
		}
		return sorted[i].TensorID < sorted[j].TensorID
	})

	assignments := make(map[int]Assignment, len(sorted))
	for _, t := range sorted {
		assignedChunk := -1
		var offset int64
		for ci, c := range a.chunks {
			if off := findGapFromChunk(t, c); off >= 0 {
				assignedChunk, offset = ci, off
				break
			}
		}
		if assignedChunk < 0 {
			size := a.chunkSize
			if scaled := int64(float64(t.Size) * a.kScale); scaled > size {
				size = scaled
			}
			a.chunks = append(a.chunks, &chunk{buf: a.dev.Malloc(size)})
			assignedChunk, offset = len(a.chunks)-1, 0
		}
		a.chunks[assignedChunk].insertPlaced(t, offset)
		assignments[t.TensorID] = Assignment{Chunk: assignedChunk, Offset: offset}
	}

	// Release unused chunks (Algorithm 1, line 41): immediately by default,
	// or after idleTTL consecutive idle inferences under the alternative
	// policy.
	kept := a.chunks[:0]
	remap := make([]int, len(a.chunks))
	for ci, c := range a.chunks {
		if len(c.records) == 0 {
			c.idle++
			if c.idle > a.idleTTL {
				a.dev.Free(c.buf)
				remap[ci] = -1
				continue
			}
		} else {
			c.idle = 0
		}
		remap[ci] = len(kept)
		kept = append(kept, c)
	}
	a.chunks = kept
	for id, asg := range assignments {
		asg.Chunk = remap[asg.Chunk]
		assignments[id] = asg
	}

	plan := &Plan{Assignments: assignments, Chunks: make([]*Buffer, len(a.chunks))}
	for i, c := range a.chunks {
		plan.Chunks[i] = c.buf
	}
	return plan
}

// Release implements Allocator: drop every cached chunk.
func (a *TurboAllocator) Release() {
	for _, c := range a.chunks {
		a.dev.Free(c.buf)
	}
	a.chunks = nil
}

// ChunkSizes returns the current chunk sizes in order.
func (a *TurboAllocator) ChunkSizes() []int64 {
	sizes := make([]int64, len(a.chunks))
	for i, c := range a.chunks {
		sizes[i] = c.buf.Size
	}
	return sizes
}
