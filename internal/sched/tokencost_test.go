package sched

import (
	"testing"
	"time"
)

// syntheticPrice models an engine whose batch cost is overhead + work:
// 50µs launch/planning overhead, 1µs per row, 10ns per score element. On
// the padded engine a (seqLen, batch) uniform batch does batch·seqLen rows.
func syntheticPrice(seqLen, batch int) time.Duration {
	rows := float64(batch * seqLen)
	sq := float64(batch*seqLen) * float64(seqLen)
	return time.Duration(50e3 + rows*1e3 + sq*10)
}

// TestFitTokenCostRecoversCoefficients: the warm-up fit must recover the
// generating model near-exactly from the sampled sweep.
func TestFitTokenCostRecoversCoefficients(t *testing.T) {
	c := BuildCachedCost(syntheticPrice, 128, 8, 16).Fit()
	if got := c.Fixed; got < 45e3 || got > 55e3 {
		t.Fatalf("Fixed = %g, want ≈50e3", got)
	}
	if got := c.PerToken; got < 0.95e3 || got > 1.05e3 {
		t.Fatalf("PerToken = %g, want ≈1e3", got)
	}
	if got := c.PerSqToken; got < 9 || got > 11 {
		t.Fatalf("PerSqToken = %g, want ≈10", got)
	}
	// Uniform-batch pricing must agree with the padded table view.
	want := syntheticPrice(64, 4)
	got := c.BatchCost(Uniform(64, 4))
	if ratio := float64(got) / float64(want); ratio < 0.99 || ratio > 1.01 {
		t.Fatalf("BatchCost(64,4) = %v, want ≈%v", got, want)
	}
}

// skewedQueue is the paper's serving shape: mostly short requests with a
// tail of long ones.
func skewedQueue() []*Request {
	var reqs []*Request
	id := int64(0)
	add := func(length, count int) {
		for i := 0; i < count; i++ {
			reqs = append(reqs, &Request{ID: id, Length: length})
			id++
		}
	}
	add(8, 12)
	add(16, 4)
	add(400, 2)
	return reqs
}

// TestDPFormsDifferentBatchesUnderTokenCost is the satellite regression:
// on a skewed workload the DP scheduler must form *different* batches when
// the packed engine's token cost is active — and those batches must be
// better (cheaper in true packed cost) than what the padded cost table
// makes it pick.
//
// Under padded cost, putting an 8-token request next to a 400-token one
// makes the short request cost 400 tokens, so the DP splits shorts from
// longs. Under token cost the short request costs 8 tokens wherever it
// sits, so merging everything into one batch saves the per-batch overhead.
func TestDPFormsDifferentBatchesUnderTokenCost(t *testing.T) {
	reqs := skewedQueue()

	paddedCost := BuildCachedCost(syntheticPrice, 512, 32, 32)
	tokenCost := BuildCachedCost(syntheticPrice, 512, 32, 32).Fit()

	dpPadded := &DPScheduler{Cost: paddedCost, MaxBatch: 32}
	dpToken := &DPScheduler{Cost: tokenCost, MaxBatch: 32}

	padSchedule := dpPadded.Schedule(reqs)
	tokSchedule := dpToken.Schedule(reqs)

	for _, schedule := range [][]Batch{padSchedule, tokSchedule} {
		covered := 0
		for _, b := range schedule {
			covered += b.Size()
			if b.TotalTokens <= 0 {
				t.Fatalf("batch missing TotalTokens: %+v", b)
			}
		}
		if covered != len(reqs) {
			t.Fatalf("schedule covers %d of %d requests", covered, len(reqs))
		}
	}

	if len(padSchedule) < 2 {
		t.Fatalf("padded cost should split shorts from longs, got %d batch(es)", len(padSchedule))
	}
	if len(tokSchedule) >= len(padSchedule) {
		t.Fatalf("token cost formed %d batches, padded %d — expected fewer (padding no longer priced)",
			len(tokSchedule), len(padSchedule))
	}

	// The token-cost schedule must be better on the packed engine: price
	// both schedules with the true token cost and compare.
	packedPrice := func(batches []Batch) time.Duration {
		var total time.Duration
		for _, b := range batches {
			shape := Shape{Size: b.Size(), MaxLen: b.PaddedLen}
			for _, r := range b.Requests {
				shape.Tokens += int64(r.Length)
				shape.SqTokens += int64(r.Length) * int64(r.Length)
			}
			total += tokenCost.BatchCost(shape)
		}
		return total
	}
	if pt, pp := packedPrice(tokSchedule), packedPrice(padSchedule); pt > pp {
		t.Fatalf("token-cost schedule costs %v on the packed engine, padded-cost schedule %v", pt, pp)
	}
}

// TestDPTokenCostStillRespectsMaxBatch: the token-cost DP path must honour
// the batch-size cap exactly like the padded path.
func TestDPTokenCostStillRespectsMaxBatch(t *testing.T) {
	tokenCost := BuildCachedCost(syntheticPrice, 512, 32, 32).Fit()
	dp := &DPScheduler{Cost: tokenCost, MaxBatch: 4}
	batches := dp.Schedule(skewedQueue())
	covered := 0
	for _, b := range batches {
		if b.Size() > 4 {
			t.Fatalf("batch size %d exceeds cap 4", b.Size())
		}
		covered += b.Size()
	}
	if covered != len(skewedQueue()) {
		t.Fatalf("covered %d requests", covered)
	}
}

// TestRequestCostRouting pins the request price the replica router
// prices admissions with: monotone in both prompt and decode budget, the
// prefill-only form agrees with a batch-of-one, and the token-count
// fallback counts tokens.
func TestRequestCostRouting(t *testing.T) {
	c := &TokenCost{Fixed: 100, PerToken: 10, PerSqToken: 1}
	// Prefill-only request == one-request batch of that length.
	if got, want := c.RequestCost(8, 0), c.BatchCost(Uniform(8, 1)); got != want {
		t.Fatalf("prefill-only RequestCost %v != BatchCost(8,1) %v", got, want)
	}
	// Strictly monotone in prompt length and in decode budget.
	prev := time.Duration(0)
	for _, p := range []int{1, 4, 16, 64} {
		if got := c.RequestCost(p, 0); got <= prev {
			t.Fatalf("RequestCost not increasing in prompt: p=%d %v <= %v", p, got, prev)
		} else {
			prev = got
		}
	}
	if c.RequestCost(8, 16) <= c.RequestCost(8, 4) {
		t.Fatal("RequestCost not increasing in decode budget")
	}
	// Decode tokens attend a longer worst-case context than fresh prompt
	// tokens of the same count, so with a quadratic term they price higher.
	if c.RequestCost(8, 8) <= c.RequestCost(8, 0) {
		t.Fatal("decode budget priced as free")
	}

	if TokenCounts.RequestCost(5, 3) != 8 || TokenCounts.RequestCost(0, 0) != 1 {
		t.Fatalf("TokenCounts: %v %v", TokenCounts.RequestCost(5, 3), TokenCounts.RequestCost(0, 0))
	}
	// The phases split a session exactly.
	if got, want := c.PrefillCost(8)+c.DecodeCost(8, 16), c.RequestCost(8, 16); got != want {
		t.Fatalf("PrefillCost + DecodeCost = %v, RequestCost = %v", got, want)
	}
}
