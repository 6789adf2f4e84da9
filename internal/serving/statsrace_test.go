package serving

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestStatsPollDuringPagedGenerate is the regression test for the crash
// PR 11's benchmark found: /v1/stats snapshots the prefix cache from HTTP
// goroutines while the decode loop inserts, evicts and scavenges entries —
// before the cache was locked this died with "fatal error: concurrent map
// iteration and map write" (and is a data race under -race). Both front
// doors are polled in a tight loop for as long as concurrent paged
// generations run: a single server's handler and a two-replica router's
// aggregate.
func TestStatsPollDuringPagedGenerate(t *testing.T) {
	solo, _ := pagedTestServer(t, 8, 0)
	r1, _ := pagedTestServer(t, 8, 0)
	r2, _ := pagedTestServer(t, 8, 0)
	router, err := NewRouter(RouterConfig{}, r1, r2)
	if err != nil {
		t.Fatal(err)
	}

	for _, door := range []struct {
		name    string
		handler http.Handler
	}{
		{"server", solo.Handler()},
		{"router", router.Handler()},
	} {
		t.Run(door.name, func(t *testing.T) {
			const clients, perClient = 6, 12
			done := make(chan struct{})
			var polls sync.WaitGroup
			for p := 0; p < 2; p++ {
				polls.Add(1)
				go func() {
					defer polls.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						w := httptest.NewRecorder()
						door.handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
						if w.Code != http.StatusOK {
							t.Errorf("/v1/stats: status %d", w.Code)
							return
						}
					}
				}()
			}
			// Distinct and repeated prompts: misses insert entries as their
			// generations retire, repeats hit and replay them.
			var gens sync.WaitGroup
			for c := 0; c < clients; c++ {
				gens.Add(1)
				go func(c int) {
					defer gens.Done()
					for i := 0; i < perClient; i++ {
						text := fmt.Sprintf("question %d", (c*perClient+i)%20)
						w, r := postJSON(t, "/v1/generate", generateRequest{Text: text, MaxNewTokens: 6})
						door.handler.ServeHTTP(w, r)
						if w.Code != http.StatusOK {
							t.Errorf("generate %q: status %d: %s", text, w.Code, w.Body.String())
							return
						}
					}
				}(c)
			}
			gens.Wait()
			close(done)
			polls.Wait()
		})
	}
}
