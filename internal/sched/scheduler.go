package sched

import (
	"sort"
	"time"
)

// Request is one queued inference request.
type Request struct {
	ID      int64
	Length  int     // sequence length in tokens
	Arrival float64 // arrival time in seconds (virtual or wall)
	// Deadline is the absolute time (same clock as Arrival, seconds) past
	// which the request is no longer worth executing; 0 means none. The
	// schedulers themselves do not drop requests — the serving layer filters
	// expired requests before scheduling and counts them — but the field
	// travels with the request so policies can consult it.
	Deadline float64
	// Priority orders requests of the same kind at admission: higher runs
	// first, ties break FCFS. 0 is the default class.
	Priority int
	// Payload carries application data through the scheduler untouched.
	Payload interface{}
}

// Expired reports whether the request's deadline (if any) has passed at
// the given time (same clock as Arrival).
func (r *Request) Expired(now float64) bool {
	return r.Deadline > 0 && now > r.Deadline
}

// Batch is a scheduled group of requests executed together. On the padded
// engine every member is zero-padded to PaddedLen; on the packed engine the
// batch runs ragged and PaddedLen only records the longest member.
type Batch struct {
	Requests  []*Request
	PaddedLen int
	// TotalTokens is the sum of the members' true lengths — the packed
	// engine's actual work.
	TotalTokens int
	// Predicted is the cost model's estimate for this batch.
	Predicted time.Duration
}

// Size returns the number of requests in the batch.
func (b Batch) Size() int { return len(b.Requests) }

func totalTokens(requests []*Request) int {
	t := 0
	for _, r := range requests {
		t += r.Length
	}
	return t
}

// Scheduler partitions a set of queued requests into batches.
type Scheduler interface {
	Name() string
	// Schedule partitions requests into execution batches. Implementations
	// must cover every request exactly once.
	Schedule(requests []*Request) []Batch
}

// --- NoBatch ------------------------------------------------------------

// NoBatchScheduler serves every request alone (the PyTorch-NoBatch /
// Turbo-NoBatch baselines of Figs. 15–16).
type NoBatchScheduler struct {
	Cost CostModel
}

// Name implements Scheduler.
func (s *NoBatchScheduler) Name() string { return "NoBatch" }

// Schedule implements Scheduler.
func (s *NoBatchScheduler) Schedule(requests []*Request) []Batch {
	batches := make([]Batch, 0, len(requests))
	for _, r := range requests {
		batches = append(batches, Batch{
			Requests:    []*Request{r},
			PaddedLen:   r.Length,
			TotalTokens: r.Length,
			Predicted:   s.Cost.BatchCost(Uniform(r.Length, 1)),
		})
	}
	return batches
}

// --- Naive --------------------------------------------------------------

// NaiveScheduler packs the queue into maximal batches in arrival order,
// zero-padding every member to the batch maximum (the Turbo-Naive-Batch
// baseline: "packs the requests currently inside the message queue into a
// single batch").
type NaiveScheduler struct {
	Cost     CostModel
	MaxBatch int
}

// Name implements Scheduler.
func (s *NaiveScheduler) Name() string { return "Naive-Batch" }

// Schedule implements Scheduler.
func (s *NaiveScheduler) Schedule(requests []*Request) []Batch {
	maxBatch := s.MaxBatch
	if maxBatch < 1 {
		maxBatch = len(requests)
	}
	var batches []Batch
	for start := 0; start < len(requests); start += maxBatch {
		end := start + maxBatch
		if end > len(requests) {
			end = len(requests)
		}
		group := requests[start:end]
		maxLen := 0
		for _, r := range group {
			if r.Length > maxLen {
				maxLen = r.Length
			}
		}
		batches = append(batches, Batch{
			Requests:    append([]*Request(nil), group...),
			PaddedLen:   maxLen,
			TotalTokens: totalTokens(group),
			Predicted:   s.Cost.BatchCost(Uniform(maxLen, len(group))),
		})
	}
	return batches
}

// --- DP (Algorithm 2) ----------------------------------------------------

// DPScheduler is the paper's sequence-length-aware batch scheduler: sort
// requests by length, then dynamic programming over contiguous partitions
// of the sorted list minimises total execution time (maximising response
// throughput), in O(n²) — or O(n·MaxBatch) with the batch-size cap.
//
// Each candidate range is priced by its whole Shape — its longest member
// and its Σ len_i and Σ len_i² — so a padded-engine cost (which reads the
// longest member) and a packed-engine TokenCost (which reads the token
// totals, and so never counts padding as a reason to split) are consulted
// the same way.
type DPScheduler struct {
	Cost     CostModel
	MaxBatch int // 0 = unbounded
}

// Name implements Scheduler.
func (s *DPScheduler) Name() string { return "DP-Batch" }

// Schedule implements Algorithm 2, including the start_idx backtrace.
func (s *DPScheduler) Schedule(requests []*Request) []Batch {
	n := len(requests)
	if n == 0 {
		return nil
	}
	// Sort in increasing order of sequence length (stable for determinism).
	sorted := append([]*Request(nil), requests...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Length < sorted[j].Length })

	// Prefix sums over the sorted list price any range's shape in O(1).
	tokPfx := make([]int64, n+1)
	sqPfx := make([]int64, n+1)
	for i, r := range sorted {
		l := int64(r.Length)
		tokPfx[i+1] = tokPfx[i] + l
		sqPfx[i+1] = sqPfx[i] + l*l
	}
	// rangeCost prices the batch sorted[j-1:i] (1-based DP indices).
	// Because the list is sorted, that batch's longest member is
	// sorted[i-1] regardless of where it starts.
	rangeCost := func(j, i int) time.Duration {
		return s.Cost.BatchCost(Shape{
			Size:     i - j + 1,
			MaxLen:   sorted[i-1].Length,
			Tokens:   tokPfx[i] - tokPfx[j-1],
			SqTokens: sqPfx[i] - sqPfx[j-1],
		})
	}

	const inf = time.Duration(1<<63 - 1)
	states := make([]time.Duration, n+1) // states[i]: min cost of sorted[0:i]
	startIdx := make([]int, n+1)
	for i := 1; i <= n; i++ {
		best := inf
		bestStart := i - 1
		for j := i; j >= 1; j-- {
			size := i - j + 1
			if s.MaxBatch > 0 && size > s.MaxBatch {
				break
			}
			cost := states[j-1] + rangeCost(j, i)
			if cost < best {
				best = cost
				bestStart = j - 1
			}
		}
		states[i] = best
		startIdx[i] = bestStart
	}

	// Backtrace: pack sorted[start:end] batches from the tail.
	var batches []Batch
	for i := n; i > 0; {
		start := startIdx[i]
		group := sorted[start:i]
		batches = append(batches, Batch{
			Requests:    append([]*Request(nil), group...),
			PaddedLen:   group[len(group)-1].Length,
			TotalTokens: totalTokens(group),
			Predicted:   rangeCost(start+1, i),
		})
		i = start
	}
	// Reverse so the shortest-length batch runs first.
	for l, r := 0, len(batches)-1; l < r; l, r = l+1, r-1 {
		batches[l], batches[r] = batches[r], batches[l]
	}
	return batches
}

// TotalPredicted sums the predicted cost of a schedule.
func TotalPredicted(batches []Batch) time.Duration {
	var total time.Duration
	for _, b := range batches {
		total += b.Predicted
	}
	return total
}
