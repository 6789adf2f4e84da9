package sched

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/perf"
)

var updatePins = flag.Bool("update", false, "rewrite testdata/pricing.txt from this build's prices")

const pinFile = "testdata/pricing.txt"

// blockedPrice is a padded-engine surface that no three-term fit matches
// exactly: lengths round up to 8-token tiles and a batch shares its launch.
func blockedPrice(seqLen, batch int) time.Duration {
	tiles := (seqLen + 7) / 8
	return time.Duration(80e3 + float64(batch*tiles)*2.5e3 + float64(batch*tiles*tiles)*37)
}

// rtx2060Price is the device model the modeled routing experiments fit
// their route cost on: BERT-base encodes on the RTX 2060 estimator.
func rtx2060Price() func(seqLen, batch int) time.Duration {
	est, cfg, p := perf.NewEstimator(perf.RTX2060()), model.BertBase(), perf.Turbo()
	return func(seqLen, batch int) time.Duration { return est.BatchCost(p, cfg, seqLen, batch) }
}

// fitBits renders a fitted token cost's coefficients as their float bits.
func fitBits(c *TokenCost) string {
	return fmt.Sprintf("fixed=%016x perTok=%016x perSqTok=%016x",
		math.Float64bits(c.Fixed), math.Float64bits(c.PerToken), math.Float64bits(c.PerSqToken))
}

// scheduleString renders a schedule as its batches' request IDs and exact
// predicted durations.
func scheduleString(batches []Batch) string {
	var b strings.Builder
	for i, bt := range batches {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('[')
		for j, r := range bt.Requests {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprint(&b, r.ID)
		}
		fmt.Fprintf(&b, "]=%d", int64(bt.Predicted))
	}
	return b.String()
}

// pinnedRequests is the i-th seeded request list: up to 40 requests, most
// short, some past every dictionary's largest sampled length.
func pinnedRequests(i int) []*Request {
	rng := rand.New(rand.NewSource(int64(1000 + i)))
	n := 1 + rng.Intn(40)
	reqs := make([]*Request, n)
	for k := range reqs {
		l := 1 + rng.Intn(32)
		if rng.Intn(4) == 0 {
			l = 1 + rng.Intn(300)
		}
		reqs[k] = &Request{ID: int64(k), Length: l}
	}
	return reqs
}

// pricingPins computes every pinned price: the token fit's coefficients
// and the schedules (batches and predicted costs) of the three schedulers
// over seeded request lists, under a dictionary, a token cost and a plain
// function.
func pricingPins() map[string]string {
	pins := map[string]string{
		"fit/synthetic": fitBits(BuildCachedCost(syntheticPrice, 128, 8, 16).Fit()),
		"fit/blocked":   fitBits(BuildCachedCost(blockedPrice, 200, 6, 24).Fit()),
		"fit/rtx2060":   fitBits(BuildCachedCost(rtx2060Price(), 96, 4, 24).Fit()),
	}
	costs := []struct {
		name string
		cost CostModel
	}{
		{"cached", BuildCachedCost(blockedPrice, 256, 8, 20)},
		{"token", BuildCachedCost(syntheticPrice, 256, 8, 32).Fit()},
		{"func", CostFunc(linearCost)},
	}
	for i := 0; i < 32; i++ {
		reqs := pinnedRequests(i)
		maxBatch := []int{0, 4, 8}[i%3]
		for _, c := range costs {
			key := fmt.Sprintf("%02d/%s/", i, c.name)
			pins[key+"dp"] = scheduleString((&DPScheduler{Cost: c.cost, MaxBatch: maxBatch}).Schedule(reqs))
			pins[key+"naive"] = scheduleString((&NaiveScheduler{Cost: c.cost, MaxBatch: maxBatch}).Schedule(reqs))
			pins[key+"nobatch"] = scheduleString((&NoBatchScheduler{Cost: c.cost}).Schedule(reqs))
		}
	}
	return pins
}

// TestPricingPins holds every price the schedulers and the token fit
// produce to the bytes in testdata/pricing.txt: fitted coefficients as
// float bits, schedules as request IDs with exact predicted durations.
func TestPricingPins(t *testing.T) {
	got := pricingPins()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)

	if *updatePins {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s: %s\n", name, got[name])
		}
		if err := os.WriteFile(pinFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	raw, err := os.ReadFile(pinFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, value, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("%s: malformed line %q", pinFile, line)
		}
		want[name] = value
	}
	if len(want) != len(got) {
		t.Errorf("%s records %d pins, the test computes %d", pinFile, len(want), len(got))
	}
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s:\n got  %s\n want %s", name, got[name], want[name])
		}
	}
}
