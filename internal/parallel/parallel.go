// Package parallel provides the tiny data-parallel looping helpers the CPU
// kernels share. It is the Go-side analogue of launching a grid of thread
// blocks: work is split into contiguous ranges executed by a bounded set of
// goroutines.
package parallel

import (
	"runtime"
	"sync"
)

// For splits [0,n) into contiguous ranges of at least grain elements and
// runs fn on each range concurrently. fn must be safe to call concurrently
// on disjoint ranges. If the problem is too small to benefit, fn runs inline.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers := runtime.GOMAXPROCS(0)
	maxChunks := (n + grain - 1) / grain
	if workers > maxChunks {
		workers = maxChunks
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	if chunk < grain {
		chunk = grain
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
