package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndicesOnce(t *testing.T) {
	const n = 1000
	var hits [n]int32
	For(n, 7, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, 1, func(lo, hi int) { called = true })
	For(-5, 1, func(lo, hi int) { called = true })
	if called {
		t.Fatal("For must not invoke fn for n<=0")
	}
}

func TestForSmallRunsInline(t *testing.T) {
	var count int // no atomics: if this ran concurrently the race detector would bark
	For(3, 100, func(lo, hi int) { count += hi - lo })
	if count != 3 {
		t.Fatalf("count=%d", count)
	}
}

func TestForGrainClamp(t *testing.T) {
	var total int64
	For(50, 0, func(lo, hi int) { atomic.AddInt64(&total, int64(hi-lo)) })
	if total != 50 {
		t.Fatalf("total=%d", total)
	}
}

// Property: ranges partition [0,n) exactly for arbitrary n and grain.
func TestQuickForPartitions(t *testing.T) {
	f := func(rawN uint16, rawGrain uint8) bool {
		n := int(rawN % 2048)
		grain := int(rawGrain)
		var total int64
		For(n, grain, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				panic("bad range")
			}
			atomic.AddInt64(&total, int64(hi-lo))
		})
		return total == int64(max(n, 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
