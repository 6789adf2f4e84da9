package allocator

import (
	"fmt"
	"sort"
)

// UsageRecord describes one intermediate tensor's lifetime and size — the
// {first_op, last_op, size} tuple of Algorithm 1. Op indices come from the
// topological order of the computation graph.
type UsageRecord struct {
	TensorID int
	Name     string
	FirstOp  int
	LastOp   int
	Size     int64 // bytes
}

// overlaps reports whether two records' lifetimes intersect — i.e. whether
// they may NOT share memory.
func (r UsageRecord) overlaps(x UsageRecord) bool {
	maxFirst := r.FirstOp
	if x.FirstOp > maxFirst {
		maxFirst = x.FirstOp
	}
	minLast := r.LastOp
	if x.LastOp < minLast {
		minLast = x.LastOp
	}
	return maxFirst <= minLast
}

// Assignment places a tensor at a byte offset within a chunk.
type Assignment struct {
	Chunk  int
	Offset int64
}

// Plan is the result of planning one inference: a placement per tensor and
// the set of chunks backing them.
type Plan struct {
	Assignments map[int]Assignment // keyed by TensorID
	Chunks      []*Buffer          // indexed by Assignment.Chunk
}

// TensorData returns the planned region for tensorID as a float32 slice of
// n elements. It materialises the owning chunk on first use.
func (p *Plan) TensorData(tensorID int, n int) []float32 {
	a, ok := p.Assignments[tensorID]
	if !ok {
		panic(fmt.Sprintf("allocator: tensor %d not in plan", tensorID))
	}
	start := a.Offset / 4
	return p.Chunks[a.Chunk].Data()[start : start+int64(n)]
}

// FootprintBytes is the total size of the plan's chunks.
func (p *Plan) FootprintBytes() int64 {
	var total int64
	for _, c := range p.Chunks {
		if c != nil {
			total += c.Size
		}
	}
	return total
}

// Allocator plans device placement for the intermediate tensors of one
// inference. Implementations may keep state (caches, chunk lists) across
// calls — that persistence is exactly what Figures 11–12 measure.
type Allocator interface {
	// Name identifies the allocator in experiment output.
	Name() string
	// Plan assigns every record to (chunk, offset). The records' op indices
	// must come from a topological order.
	Plan(records []UsageRecord) *Plan
	// Release drops all cached device memory (end of serving session).
	Release()
}

// Validate checks a plan's structural invariants against its records:
// every record placed, placements in-bounds, and no two lifetime-overlapping
// records sharing bytes of the same chunk. Returns the first violation.
func Validate(p *Plan, records []UsageRecord) error {
	for _, r := range records {
		a, ok := p.Assignments[r.TensorID]
		if !ok {
			return fmt.Errorf("tensor %d (%s) missing from plan", r.TensorID, r.Name)
		}
		if a.Chunk < 0 || a.Chunk >= len(p.Chunks) || p.Chunks[a.Chunk] == nil {
			return fmt.Errorf("tensor %d (%s) assigned to invalid chunk %d", r.TensorID, r.Name, a.Chunk)
		}
		if a.Offset < 0 || a.Offset+r.Size > p.Chunks[a.Chunk].Size {
			return fmt.Errorf("tensor %d (%s) out of bounds: offset %d size %d chunk %d",
				r.TensorID, r.Name, a.Offset, r.Size, p.Chunks[a.Chunk].Size)
		}
	}
	// Pairwise conflict check per chunk.
	byChunk := map[int][]UsageRecord{}
	for _, r := range records {
		a := p.Assignments[r.TensorID]
		byChunk[a.Chunk] = append(byChunk[a.Chunk], r)
	}
	for chunk, rs := range byChunk {
		sort.Slice(rs, func(i, j int) bool {
			return p.Assignments[rs[i].TensorID].Offset < p.Assignments[rs[j].TensorID].Offset
		})
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				a, b := rs[i], rs[j]
				if !a.overlaps(b) {
					continue
				}
				ao, bo := p.Assignments[a.TensorID].Offset, p.Assignments[b.TensorID].Offset
				if ao+a.Size > bo && bo+b.Size > ao {
					return fmt.Errorf("chunk %d: %s [%d,%d) and %s [%d,%d) overlap in space and time",
						chunk, a.Name, ao, ao+a.Size, b.Name, bo, bo+b.Size)
				}
			}
		}
	}
	return nil
}
