// Classifier serving: the §6.3 target application — a BERT-based text
// classification service — run live against the real serving framework,
// comparing the three batch-scheduling policies under a concurrent burst.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	turbo "repro"
)

func main() {
	cfg := turbo.BertBase().Scaled(64, 4, 256, 2)
	// One runtime, shared by every server below: NewRuntime builds the
	// engine under functional options, Serve starts a serving framework
	// over it.
	rt, err := turbo.NewRuntime(cfg, turbo.WithSeed(7), turbo.WithClasses(4), turbo.WithMaxBatch(8))
	if err != nil {
		log.Fatal(err)
	}

	// Warm-up phase: measure the real engine to build Algorithm 2's cost
	// dictionary, then fit it to the token cost — the engine is packed, so
	// a mixed-length batch costs the tokens it computes, not batch·maxLen.
	cost := turbo.WarmupCost(func(seqLen, batch int) time.Duration {
		toks := make([][]int, batch)
		for i := range toks {
			row := make([]int, seqLen)
			for j := range row {
				row[j] = 3 + (j*13)%(cfg.Vocab-3)
			}
			toks[i] = row
		}
		start := time.Now()
		if _, _, err := rt.Engine.Encode(toks); err != nil {
			log.Fatal(err)
		}
		return time.Since(start)
	}, 96, 8, 16).Fit()

	schedulers := []struct {
		name string
		s    turbo.Scheduler
	}{
		{"NoBatch", turbo.NewNoBatchScheduler(cost)},
		{"Naive-Batch", turbo.NewNaiveScheduler(cost, 8)},
		{"DP-Batch (Alg. 2)", turbo.NewDPScheduler(cost, 8)},
	}

	for _, sc := range schedulers {
		srv, err := rt.Serve(turbo.WithScheduler(sc.s))
		if err != nil {
			log.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())

		elapsed, served := burst(ts.URL, 48)
		fmt.Printf("%-18s served %2d concurrent variable-length requests in %6.1f ms (%.0f resp/s)\n",
			sc.name, served, elapsed.Seconds()*1e3, float64(served)/elapsed.Seconds())

		ts.Close()
		// Graceful drain: everything admitted is served, workers joined.
		if err := srv.Shutdown(context.Background()); err != nil {
			log.Fatal(err)
		}
	}
}

// burst fires n concurrent requests with lengths uniform in [4, 96] and
// returns the wall time to completion.
func burst(url string, n int) (time.Duration, int) {
	rng := rand.New(rand.NewSource(99))
	texts := make([]string, n)
	for i := range texts {
		l := 4 + rng.Intn(93)
		b := make([]byte, l)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		texts[i] = string(b)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	served := 0
	start := time.Now()
	for _, text := range texts {
		wg.Add(1)
		go func(text string) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]string{"text": text})
			resp, err := http.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
			if err == nil && resp.StatusCode == http.StatusOK {
				mu.Lock()
				served++
				mu.Unlock()
			}
			if resp != nil {
				resp.Body.Close()
			}
		}(text)
	}
	wg.Wait()
	return time.Since(start), served
}
