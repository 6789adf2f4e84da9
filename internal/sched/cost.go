// Package sched implements the serving framework's batch schedulers (§5):
// the paper's sequence-length-aware dynamic-programming scheduler
// (Algorithm 2), the naive pack-everything scheduler, and the no-batching
// baseline, plus the cached_cost dictionary they consult — built by a
// warm-up sweep, interpolated for unsampled lengths, and saved and reloaded
// across restarts, as §6.3 describes. The §6.3 online update (folding
// measured batch times back into the dictionary) is not implemented: the
// dictionary is fixed once warm-up ends.
package sched

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Shape is what a batch costs a function of: its size, its longest member
// (what every member pads to on the padded engine), and its true token
// totals Σ len_i and Σ len_i² (the packed engine's GEMM rows and
// attention-score elements).
type Shape struct {
	Size, MaxLen     int
	Tokens, SqTokens int64
}

// Uniform is the shape of size requests all seqLen tokens long.
func Uniform(seqLen, size int) Shape {
	b, s := int64(size), int64(seqLen)
	return Shape{Size: size, MaxLen: seqLen, Tokens: b * s, SqTokens: b * s * s}
}

// CostModel prices executing one batch. Algorithm 2 minimises the sum of
// these over a partition of the length-sorted queue.
type CostModel interface {
	BatchCost(Shape) time.Duration
}

// CostFunc adapts a padded-engine price of (seqLen, batchSize) to
// CostModel: it is called with the shape's MaxLen and Size.
type CostFunc func(seqLen, batchSize int) time.Duration

// BatchCost implements CostModel.
func (f CostFunc) BatchCost(s Shape) time.Duration { return f(s.MaxLen, s.Size) }

// CachedCost is the cached_cost dictionary of Algorithm 2: per-(length,
// batch-size) inference costs collected by a warm-up phase. Lengths may be
// sampled sparsely ("if the parameter space is large, we sample ... and use
// the interpolation method", §6.3); lookups interpolate linearly between
// sampled lengths. It prices the padded engine, where (MaxLen, Size)
// determine the work; Fit derives the packed engine's TokenCost from the
// same table.
type CachedCost struct {
	lens     []int // sorted sampled lengths
	maxBatch int
	// table[b-1][li] = cost of batch size b at sampled length lens[li].
	table [][]time.Duration
}

// BuildCachedCost runs the warm-up sweep: price(seqLen, batch) is evaluated
// for every batch size 1..maxBatch at lengths 1, 1+stride, ... up to
// maxLen (maxLen always included).
func BuildCachedCost(price func(seqLen, batchSize int) time.Duration, maxLen, maxBatch, lenStride int) *CachedCost {
	if maxLen < 1 || maxBatch < 1 {
		panic(fmt.Sprintf("sched: invalid cached-cost bounds maxLen=%d maxBatch=%d", maxLen, maxBatch))
	}
	if lenStride < 1 {
		lenStride = 1
	}
	var lens []int
	for l := 1; l <= maxLen; l += lenStride {
		lens = append(lens, l)
	}
	if lens[len(lens)-1] != maxLen {
		lens = append(lens, maxLen)
	}
	c := &CachedCost{lens: lens, maxBatch: maxBatch}
	c.table = make([][]time.Duration, maxBatch)
	for b := 1; b <= maxBatch; b++ {
		row := make([]time.Duration, len(lens))
		for li, l := range lens {
			row[li] = price(l, b)
		}
		c.table[b-1] = row
	}
	return c
}

// MaxBatch returns the largest batch size the dictionary covers.
func (c *CachedCost) MaxBatch() int { return c.maxBatch }

// BatchCost implements CostModel with linear interpolation between sampled
// lengths. Lengths beyond the sampled maximum extrapolate along the last
// segment's slope, never downward, so the price is never negative; batch
// sizes beyond maxBatch scale the maxBatch entry linearly.
func (c *CachedCost) BatchCost(s Shape) time.Duration {
	seqLen, batchSize := max(s.MaxLen, 1), s.Size
	scale := 1.0
	if batchSize > c.maxBatch {
		scale = float64(batchSize) / float64(c.maxBatch)
		batchSize = c.maxBatch
	}
	if batchSize < 1 {
		batchSize = 1
	}
	row := c.table[batchSize-1]
	i := sort.SearchInts(c.lens, seqLen)
	var base float64
	switch {
	case i < len(c.lens) && c.lens[i] == seqLen:
		base = float64(row[i])
	case i == 0:
		base = float64(row[0])
	case i >= len(c.lens):
		n := len(c.lens)
		if n == 1 {
			base = float64(row[0])
			break
		}
		slope := max(0, float64(row[n-1]-row[n-2])/float64(c.lens[n-1]-c.lens[n-2]))
		base = float64(row[n-1]) + slope*float64(seqLen-c.lens[n-1])
	default:
		lo, hi := c.lens[i-1], c.lens[i]
		frac := float64(seqLen-lo) / float64(hi-lo)
		base = float64(row[i-1]) + frac*float64(row[i]-row[i-1])
	}
	return saturate(base * scale)
}

// saturate converts ns to a Duration clamped to [0, MaxInt64], where a bare
// conversion of an out-of-range float is undefined.
func saturate(ns float64) time.Duration {
	switch {
	case ns >= math.MaxInt64:
		return math.MaxInt64
	case ns > 0:
		return time.Duration(ns)
	}
	return 0
}

// Fit least-squares-fits the packed engine's three-term TokenCost to the
// dictionary's uniform batches — the form that lets Algorithm 2 price the
// mixed-length batches the packed engine actually runs, which no
// (seqLen, batch) table can express. Negative fitted coefficients (possible
// under measurement noise) are clamped to zero.
func (c *CachedCost) Fit() *TokenCost {
	// Normal equations for y ≈ x·[c0 c1 c2] with x = (1, tokens, sumSq).
	var ata [3][3]float64
	var aty [3]float64
	for li, l := range c.lens {
		for b := 1; b <= c.maxBatch; b++ {
			y := float64(c.table[b-1][li])
			tokens := float64(b) * float64(l)
			x := [3]float64{1, tokens, tokens * float64(l)}
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					ata[i][j] += x[i] * x[j]
				}
				aty[i] += x[i] * y
			}
		}
	}
	k := solve3(ata, aty)
	for i := range k {
		if k[i] < 0 {
			k[i] = 0
		}
	}
	return &TokenCost{Fixed: k[0], PerToken: k[1], PerSqToken: k[2]}
}

// solve3 solves the 3×3 system A·x = y by Gaussian elimination with
// partial pivoting. A singular system (degenerate sweep grids) falls back
// to a pure per-token model derived from the mean.
func solve3(a [3][3]float64, y [3]float64) [3]float64 {
	const n = 3
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			// Singular: fall back to cost ≈ mean-per-token. a[0][0] is the
			// sample count, a[0][1] the token sum, y[0] the cost sum.
			if a[0][1] > 0 {
				return [3]float64{0, y[0] / a[0][1], 0}
			}
			return [3]float64{}
		}
		a[col], a[piv] = a[piv], a[col]
		y[col], y[piv] = y[piv], y[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			y[r] -= f * y[col]
		}
	}
	var x [3]float64
	for r := n - 1; r >= 0; r-- {
		s := y[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x
}
