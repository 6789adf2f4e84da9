package sched

import (
	"bytes"
	"testing"
	"time"
)

// fuzzCost is a convex-ish surface with a launch floor so the DP has real
// tradeoffs to explore.
var fuzzCost = CostFunc(func(l, b int) time.Duration {
	return 100*time.Microsecond + time.Duration(l*b)*3*time.Microsecond
})

// decodeLengths turns fuzz bytes into a request list (lengths 1..256).
func decodeLengths(data []byte) []*Request {
	if len(data) > 64 {
		data = data[:64]
	}
	reqs := make([]*Request, 0, len(data))
	for i, b := range data {
		reqs = append(reqs, &Request{ID: int64(i + 1), Length: int(b) + 1})
	}
	return reqs
}

// checkPartition asserts the Scheduler contract: every request exactly
// once, PaddedLen = max member length, batch sizes within the cap.
func checkPartition(t *testing.T, name string, reqs []*Request, batches []Batch, maxBatch int) {
	t.Helper()
	seen := map[int64]int{}
	for _, b := range batches {
		if b.Size() == 0 {
			t.Fatalf("%s produced an empty batch", name)
		}
		if maxBatch > 0 && b.Size() > maxBatch {
			t.Fatalf("%s batch size %d exceeds cap %d", name, b.Size(), maxBatch)
		}
		maxLen := 0
		for _, r := range b.Requests {
			seen[r.ID]++
			if r.Length > maxLen {
				maxLen = r.Length
			}
		}
		if b.PaddedLen != maxLen {
			t.Fatalf("%s PaddedLen %d != max member length %d", name, b.PaddedLen, maxLen)
		}
	}
	if len(seen) != len(reqs) {
		t.Fatalf("%s covered %d of %d requests", name, len(seen), len(reqs))
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("%s scheduled request %d %d times", name, id, c)
		}
	}
}

// FuzzSchedulers feeds arbitrary length distributions through all three
// schedulers and checks the partition invariants, plus DP's optimality
// guarantee of never losing to the single-batch and no-batch plans it
// contains in its search space.
func FuzzSchedulers(f *testing.F) {
	f.Add([]byte{17, 18, 52, 63, 77})
	f.Add([]byte{1})
	f.Add([]byte{255, 1, 255, 1, 255, 1})
	f.Add([]byte{10, 10, 10, 10, 10, 10, 10, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs := decodeLengths(data)
		if len(reqs) == 0 {
			return
		}
		const maxBatch = 8
		dp := (&DPScheduler{Cost: fuzzCost, MaxBatch: maxBatch}).Schedule(reqs)
		naive := (&NaiveScheduler{Cost: fuzzCost, MaxBatch: maxBatch}).Schedule(reqs)
		nobatch := (&NoBatchScheduler{Cost: fuzzCost}).Schedule(reqs)

		checkPartition(t, "DP", reqs, dp, maxBatch)
		checkPartition(t, "Naive", reqs, naive, maxBatch)
		checkPartition(t, "NoBatch", reqs, nobatch, 1)

		// Algorithm 2 minimises total predicted time over contiguous
		// partitions of the sorted list; both baselines are members of that
		// space, so the DP must never be worse.
		dpT := TotalPredicted(dp)
		if naiveSorted := sortedNaiveCost(reqs, maxBatch); dpT > naiveSorted {
			t.Fatalf("DP %v worse than sorted-naive %v", dpT, naiveSorted)
		}
		if noT := TotalPredicted(nobatch); dpT > noT {
			t.Fatalf("DP %v worse than no-batch %v", dpT, noT)
		}
	})
}

// sortedNaiveCost prices the maximal-contiguous-batches plan over the
// sorted request list (a partition in the DP's search space).
func sortedNaiveCost(reqs []*Request, maxBatch int) time.Duration {
	lens := make([]int, len(reqs))
	for i, r := range reqs {
		lens[i] = r.Length
	}
	for i := 1; i < len(lens); i++ {
		for j := i; j > 0 && lens[j] < lens[j-1]; j-- {
			lens[j], lens[j-1] = lens[j-1], lens[j]
		}
	}
	var total time.Duration
	for start := 0; start < len(lens); start += maxBatch {
		end := start + maxBatch
		if end > len(lens) {
			end = len(lens)
		}
		total += fuzzCost.BatchCost(Uniform(lens[end-1], end-start))
	}
	return total
}

// FuzzContinuousScheduler drives random enqueue/admit/evict interleavings
// and asserts conservation: nothing dropped, nothing duplicated, budget
// restored when drained.
func FuzzContinuousScheduler(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(4), uint16(100))
	f.Add([]byte{255, 255, 0, 0, 128}, uint8(1), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, maxBatch uint8, budget uint16) {
		s := NewContinuousScheduler(int(maxBatch), int(budget))
		if len(data) > 48 {
			data = data[:48]
		}
		var id int64
		enqueued := map[int64]bool{}
		admitted := map[int64]bool{}
		running := map[int64]bool{}
		for _, b := range data {
			switch b % 3 {
			case 0: // enqueue
				id++
				s.Enqueue(&GenRequest{ID: id, PromptLen: int(b), MaxNew: int(b) % 17})
				enqueued[id] = true
			case 1: // admit
				for _, r := range s.Admit() {
					if admitted[r.ID] {
						t.Fatalf("request %d admitted twice", r.ID)
					}
					if !enqueued[r.ID] {
						t.Fatalf("request %d admitted but never enqueued", r.ID)
					}
					admitted[r.ID] = true
					running[r.ID] = true
				}
			case 2: // evict one running request
				for rid := range running {
					s.Evict(rid)
					delete(running, rid)
					break
				}
			}
		}
		// Drain: evict everything, then admit until idle.
		for rid := range running {
			s.Evict(rid)
			delete(running, rid)
		}
		for guard := 0; !s.Idle() && guard < len(enqueued)+8; guard++ {
			for _, r := range s.Admit() {
				if admitted[r.ID] {
					t.Fatalf("request %d admitted twice", r.ID)
				}
				admitted[r.ID] = true
				s.Evict(r.ID)
			}
		}
		if len(admitted) != len(enqueued) {
			t.Fatalf("admitted %d of %d enqueued", len(admitted), len(enqueued))
		}
		if s.ReservedTokens() != 0 {
			t.Fatalf("budget leak: %d tokens reserved when idle", s.ReservedTokens())
		}
	})
}

// FuzzLoadCachedCost treats the cost file as untrusted input: whatever
// the bytes, LoadCachedCost either refuses them or returns a dictionary
// that Save round-trips to equal bytes, that never prices a batch below
// zero, and that Fit can always fit. Prices are checked for every batch
// size up to twice the dictionary's largest and for lengths 1..4·max(lens)
// (every length up to 1024, then each sampled length and the far end —
// the price is linear in length between those).
func FuzzLoadCachedCost(f *testing.F) {
	f.Add([]byte(`{"lens":[1,10],"max_batch":1,"table_ns":[[100,50]]}`))
	f.Add([]byte(`{"lens":[1,17,33,48],"max_batch":2,"table_ns":[[10,30,60,50],[20,60,120,100]]}`))
	for _, s := range malformedSnapshots {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadCachedCost(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := c.Save(&first); err != nil {
			t.Fatal(err)
		}
		again, err := LoadCachedCost(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved dictionary: %v", err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save round trip changed bytes:\n%s\n%s", first.Bytes(), second.Bytes())
		}

		maxLen := c.lens[len(c.lens)-1]
		far := maxLen
		if far <= (1<<62)/4 {
			far *= 4
		}
		lens := append([]int{far}, c.lens...)
		for l := 1; l <= 1024 && l <= far; l++ {
			lens = append(lens, l)
		}
		for size := 1; size <= 2*c.MaxBatch(); size++ {
			for _, l := range lens {
				if got := c.BatchCost(Uniform(l, size)); got < 0 {
					t.Fatalf("BatchCost(%d, %d) = %v", l, size, got)
				}
			}
		}
		c.Fit()
	})
}
