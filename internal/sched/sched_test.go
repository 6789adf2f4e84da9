package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// linearCost mimics a real GPU batch-cost surface: a fixed launch floor,
// plus per-token work that scales sub-linearly with batch size (batching
// raises utilisation) but linearly with the padded length (zero-padding
// waste). This is the tension Algorithm 2 optimises.
func linearCost(seqLen, batchSize int) time.Duration {
	base := 150 * time.Microsecond
	perToken := 12 * time.Microsecond
	work := float64(seqLen) * math.Pow(float64(batchSize), 0.68) * float64(perToken)
	return base + time.Duration(work)
}

func reqs(lens ...int) []*Request {
	rs := make([]*Request, len(lens))
	for i, l := range lens {
		rs[i] = &Request{ID: int64(i), Length: l}
	}
	return rs
}

func coverExactly(t *testing.T, batches []Batch, want []*Request) {
	t.Helper()
	seen := map[int64]int{}
	for _, b := range batches {
		maxLen := 0
		for _, r := range b.Requests {
			seen[r.ID]++
			if r.Length > maxLen {
				maxLen = r.Length
			}
			if r.Length > b.PaddedLen {
				t.Fatalf("request %d longer than batch pad %d", r.ID, b.PaddedLen)
			}
		}
		if b.PaddedLen != maxLen {
			t.Fatalf("padded len %d != max member %d", b.PaddedLen, maxLen)
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("schedule covered %d of %d requests", len(seen), len(want))
	}
	for _, r := range want {
		if seen[r.ID] != 1 {
			t.Fatalf("request %d scheduled %d times", r.ID, seen[r.ID])
		}
	}
}

func TestNoBatchScheduler(t *testing.T) {
	s := &NoBatchScheduler{Cost: CostFunc(linearCost)}
	rs := reqs(10, 20, 30)
	batches := s.Schedule(rs)
	if len(batches) != 3 {
		t.Fatalf("batches: %d", len(batches))
	}
	coverExactly(t, batches, rs)
}

func TestNaiveSchedulerPacksAndChunks(t *testing.T) {
	s := &NaiveScheduler{Cost: CostFunc(linearCost), MaxBatch: 2}
	rs := reqs(10, 90, 20)
	batches := s.Schedule(rs)
	if len(batches) != 2 {
		t.Fatalf("batches: %d", len(batches))
	}
	if batches[0].PaddedLen != 90 {
		t.Fatalf("naive batch must pad to the longest member: %d", batches[0].PaddedLen)
	}
	coverExactly(t, batches, rs)
}

func TestDPSchedulerCoversAndSorts(t *testing.T) {
	s := &DPScheduler{Cost: CostFunc(linearCost)}
	rs := reqs(77, 17, 63, 18, 52)
	batches := s.Schedule(rs)
	coverExactly(t, batches, rs)
	// Batches come out shortest-first, and each batch's range of lengths is
	// contiguous in the sorted order.
	prevMax := -1
	for _, b := range batches {
		for _, r := range b.Requests {
			if r.Length < prevMax {
				t.Fatalf("batches must partition the sorted order")
			}
		}
		prevMax = b.PaddedLen
	}
}

func TestDPSchedulerEmptyAndSingle(t *testing.T) {
	s := &DPScheduler{Cost: CostFunc(linearCost)}
	if got := s.Schedule(nil); got != nil {
		t.Fatal("empty queue should schedule nothing")
	}
	batches := s.Schedule(reqs(42))
	if len(batches) != 1 || batches[0].Size() != 1 {
		t.Fatalf("single request: %+v", batches)
	}
}

// The Fig. 8 scenario: five requests of lengths 17, 18, 52, 63, 77. The DP
// schedule must beat both the single-batch schedule and no batching.
func TestFig8DPBeatsBaselines(t *testing.T) {
	cost := CostFunc(linearCost)
	rs := reqs(17, 18, 52, 63, 77)

	dp := (&DPScheduler{Cost: cost}).Schedule(rs)
	naive := (&NaiveScheduler{Cost: cost}).Schedule(rs)
	nobatch := (&NoBatchScheduler{Cost: cost}).Schedule(rs)

	dpCost := TotalPredicted(dp)
	naiveCost := TotalPredicted(naive)
	nobatchCost := TotalPredicted(nobatch)
	if dpCost > naiveCost {
		t.Fatalf("DP (%v) worse than single batch (%v)", dpCost, naiveCost)
	}
	if dpCost > nobatchCost {
		t.Fatalf("DP (%v) worse than no batching (%v)", dpCost, nobatchCost)
	}
	// The paper's example groups into multiple batches (3 with its cost
	// surface); with any cost model exhibiting padding waste it must not
	// collapse to one giant batch.
	if len(dp) == 1 {
		t.Fatal("DP should split requests with widely differing lengths")
	}
}

// bruteForceOptimal enumerates every contiguous partition of the sorted
// request list and returns the minimum total cost.
func bruteForceOptimal(cost CostModel, lens []int, maxBatch int) time.Duration {
	n := len(lens)
	sorted := append([]int(nil), lens...)
	for i := 1; i < n; i++ { // insertion sort
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	const inf = time.Duration(1<<63 - 1)
	best := inf
	// Each bitmask over n-1 gaps defines a contiguous partition.
	for mask := 0; mask < 1<<(n-1); mask++ {
		var total time.Duration
		start := 0
		ok := true
		for i := 0; i < n; i++ {
			if i == n-1 || mask&(1<<i) != 0 {
				size := i - start + 1
				if maxBatch > 0 && size > maxBatch {
					ok = false
					break
				}
				total += cost.BatchCost(Uniform(sorted[i], size))
				start = i + 1
			}
		}
		if ok && total < best {
			best = total
		}
	}
	return best
}

// Property: Algorithm 2 is optimal over contiguous partitions of the
// sorted list (verified against exhaustive enumeration).
func TestQuickDPOptimality(t *testing.T) {
	f := func(seed int64, rawN uint8, rawCap uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN%9) + 2 // 2..10 requests
		maxBatch := int(rawCap % 5)
		lens := make([]int, n)
		rs := make([]*Request, n)
		for i := range lens {
			lens[i] = rng.Intn(200) + 1
			rs[i] = &Request{ID: int64(i), Length: lens[i]}
		}
		cost := CostFunc(linearCost)
		dp := (&DPScheduler{Cost: cost, MaxBatch: maxBatch}).Schedule(rs)
		if maxBatch > 0 {
			for _, b := range dp {
				if b.Size() > maxBatch {
					return false
				}
			}
		}
		return TotalPredicted(dp) == bruteForceOptimal(cost, lens, maxBatch)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDPRespectsMaxBatch(t *testing.T) {
	// A cost model where batching is free: DP would otherwise make one
	// giant batch.
	free := CostFunc(func(l, b int) time.Duration { return time.Millisecond })
	s := &DPScheduler{Cost: free, MaxBatch: 3}
	batches := s.Schedule(reqs(1, 2, 3, 4, 5, 6, 7))
	for _, b := range batches {
		if b.Size() > 3 {
			t.Fatalf("batch of %d exceeds cap", b.Size())
		}
	}
}

func TestCachedCostExactAndInterpolated(t *testing.T) {
	price := func(l, b int) time.Duration {
		return time.Duration(l*100+b*10) * time.Microsecond
	}
	c := BuildCachedCost(price, 100, 4, 10)
	// Exact sampled point.
	if got := c.BatchCost(Uniform(21, 2)); got != price(21, 2) {
		t.Fatalf("sampled point: %v vs %v", got, price(21, 2))
	}
	// Interpolated point (linear model interpolates exactly).
	if got := c.BatchCost(Uniform(26, 3)); got != price(26, 3) {
		t.Fatalf("interpolated point: %v vs %v", got, price(26, 3))
	}
	// Below the first sample clamps.
	if got := c.BatchCost(Uniform(0, 1)); got != c.BatchCost(Uniform(1, 1)) {
		t.Fatalf("clamp below: %v", got)
	}
	// Extrapolation beyond maxLen follows the last slope.
	if got := c.BatchCost(Uniform(120, 1)); got != price(120, 1) {
		t.Fatalf("extrapolation: %v vs %v", got, price(120, 1))
	}
	// Batch beyond maxBatch scales linearly.
	if got := c.BatchCost(Uniform(50, 8)); got != 2*c.BatchCost(Uniform(50, 4)) {
		t.Fatalf("batch scaling: %v", got)
	}
	if c.maxBatch != 4 {
		t.Fatal("MaxBatch")
	}
}

func TestCachedCostMaxLenAlwaysSampled(t *testing.T) {
	price := func(l, b int) time.Duration { return time.Duration(l) * time.Microsecond }
	c := BuildCachedCost(price, 97, 1, 10)
	if got := c.BatchCost(Uniform(97, 1)); got != 97*time.Microsecond {
		t.Fatalf("maxLen must be sampled exactly: %v", got)
	}
}

func TestCachedCostValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildCachedCost(func(l, b int) time.Duration { return 0 }, 0, 1, 1)
}

// Property: DP with a CachedCost model still covers all requests and never
// exceeds the naive schedule's cost.
func TestQuickDPWithCachedCostBeatsNaive(t *testing.T) {
	c := BuildCachedCost(linearCost, 500, 20, 25)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(15) + 1
		rs := make([]*Request, n)
		for i := range rs {
			rs[i] = &Request{ID: int64(i), Length: rng.Intn(499) + 1}
		}
		dp := (&DPScheduler{Cost: c, MaxBatch: 20}).Schedule(rs)
		naive := (&NaiveScheduler{Cost: c, MaxBatch: 20}).Schedule(rs)
		if TotalPredicted(dp) > TotalPredicted(naive) {
			return false
		}
		ids := map[int64]bool{}
		for _, b := range dp {
			for _, r := range b.Requests {
				ids[r.ID] = true
			}
		}
		return len(ids) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerNames(t *testing.T) {
	if (&DPScheduler{}).Name() != "DP-Batch" ||
		(&NaiveScheduler{}).Name() != "Naive-Batch" ||
		(&NoBatchScheduler{}).Name() != "NoBatch" {
		t.Fatal("scheduler names")
	}
}
