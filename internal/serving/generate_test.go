package serving

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
)

// genTestServer builds a server with both the classification and the
// continuous-batching generation paths enabled, over tiny CPU-sized
// models.
func genTestServer(t *testing.T, genMaxBatch int) (*Server, *httptest.Server) {
	t.Helper()
	return genTestServerSeeded(t, genMaxBatch, 5)
}

// genTestServerSeeded picks the generator's weight seed: 5 answers every
// prompt with an immediate EOS, 7 (the ledger's) decodes to the budget.
func genTestServerSeeded(t *testing.T, genMaxBatch int, genSeed int64) (*Server, *httptest.Server) {
	t.Helper()
	// Big enough that one decode step takes real time — a request's 64
	// steps must span several HTTP arrivals so iteration-level batching has
	// something to batch.
	encCfg := model.BertBase().Scaled(128, 4, 512, 2)
	decCfg := model.Seq2SeqDecoder().Scaled(128, 4, 512, 2)
	engine, err := core.NewEngine(encCfg, core.Options{Seed: 1, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	genEngine, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: genSeed})
	if err != nil {
		t.Fatal(err)
	}
	cost := sched.CostFunc(func(l, b int) time.Duration {
		return time.Duration(l*b) * 10 * time.Microsecond
	})
	srv, err := NewServer(ServerConfig{
		Engine:           engine,
		Scheduler:        &sched.DPScheduler{Cost: cost, MaxBatch: 8},
		MaxBatch:         8,
		GenEngine:        genEngine,
		GenMaxBatch:      genMaxBatch,
		GenDefaultMaxNew: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func generate(t *testing.T, url, text string, maxNew int) generateResponse {
	t.Helper()
	body, _ := json.Marshal(generateRequest{Text: text, MaxNewTokens: maxNew})
	resp, err := http.Post(url+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out generateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGenerateEndToEnd(t *testing.T) {
	_, ts := genTestServer(t, 8)
	r := generate(t, ts.URL, "hello generation", 8)
	if len(r.Tokens) == 0 || len(r.Tokens) > 8 {
		t.Fatalf("generated %d tokens, want 1..8: %+v", len(r.Tokens), r)
	}
	if r.PromptTokens != len("hello generation") {
		t.Fatalf("prompt tokens %d", r.PromptTokens)
	}
	// Deterministic greedy decode: same prompt, same stream (the second one
	// replayed from the prefix cache).
	r2 := generate(t, ts.URL, "hello generation", 8)
	if !reflect.DeepEqual(r.Tokens, r2.Tokens) {
		t.Fatalf("same prompt produced %v then %v", r.Tokens, r2.Tokens)
	}
}

// TestGenerateConcurrentMatchesSolo is the end-to-end continuous-batching
// invariant: responses computed in a shared ragged batch must be identical
// to the same prompts served alone, and the decode loop must actually have
// shared iterations (batches > 1). The solo references decode on a second
// server, and every burst asks prompts new to the batching server, so its
// prefix cache never answers a burst by replay.
func TestGenerateConcurrentMatchesSolo(t *testing.T) {
	srv, ts := genTestServer(t, 8)
	_, soloTS := genTestServer(t, 8)

	// The tiny test model decodes a whole request in about a millisecond, so
	// whether two HTTP requests overlap inside the decode loop is
	// timing-dependent — repeat the burst until iteration-level batching is
	// observed (first burst, in practice).
	for burst := 0; burst < 10; burst++ {
		prompts := make([]string, 8)
		solo := make([][]int, len(prompts))
		for i := range prompts {
			prompts[i] = fmt.Sprintf("burst %d prompt number %d %s", burst, i, strings.Repeat("x", i*3))
			solo[i] = generate(t, soloTS.URL, prompts[i], 64).Tokens
		}
		results := make([][]int, len(prompts))
		var wg sync.WaitGroup
		for i, p := range prompts {
			wg.Add(1)
			go func(i int, p string) {
				defer wg.Done()
				results[i] = generate(t, ts.URL, p, 64).Tokens
			}(i, p)
		}
		wg.Wait()
		for i := range prompts {
			if !reflect.DeepEqual(solo[i], results[i]) {
				t.Fatalf("burst %d prompt %d: solo %v vs batched %v", burst, i, solo[i], results[i])
			}
		}
		if srv.gen.peakBatch.Load() >= 2 {
			break
		}
	}
	if peak := srv.gen.peakBatch.Load(); peak < 2 {
		t.Fatalf("no iteration-level batching observed across bursts (peak batch %d)", peak)
	}
	if steps, toks := srv.gen.stepsRun.Load(), srv.gen.tokensOut.Load(); steps >= toks {
		t.Fatalf("no shared iterations: %d steps for %d tokens", steps, toks)
	}
}

// TestClassifyAndGenerateConcurrently drives both endpoints at once: the
// two workers share nothing, so both paths must stay correct and the
// classifier must still form batches.
func TestClassifyAndGenerateConcurrently(t *testing.T) {
	srv, ts := genTestServer(t, 8)
	const n = 10
	classes := make([]int, n)
	gens := make([][]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			classes[i] = classify(t, ts.URL, fmt.Sprintf("mixed workload request %d", i)).Class
			gens[i] = generate(t, ts.URL, fmt.Sprintf("mixed workload request %d", i), 8).Tokens
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if classes[i] < 0 || classes[i] >= 3 {
			t.Fatalf("bad class %d", classes[i])
		}
		if len(gens[i]) == 0 {
			t.Fatalf("request %d generated nothing", i)
		}
		// Identical single-request references for both paths.
		if got := classify(t, ts.URL, fmt.Sprintf("mixed workload request %d", i)).Class; got != classes[i] {
			t.Fatalf("request %d: concurrent class %d vs solo %d", i, classes[i], got)
		}
		if got := generate(t, ts.URL, fmt.Sprintf("mixed workload request %d", i), 8).Tokens; !reflect.DeepEqual(got, gens[i]) {
			t.Fatalf("request %d: concurrent tokens %v vs solo %v", i, gens[i], got)
		}
	}
	if srv.served.Load() < n {
		t.Fatalf("classifier served %d of %d", srv.served.Load(), n)
	}
	if srv.gen.requests.Load() < n {
		t.Fatalf("generator saw %d of %d", srv.gen.requests.Load(), n)
	}
}

func TestGenerateStreaming(t *testing.T) {
	_, ts := genTestServer(t, 4)
	body, _ := json.Marshal(generateRequest{Text: "stream me", MaxNewTokens: 6, Stream: true})
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var chunks []streamChunk
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var c streamChunk
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatalf("bad chunk %q: %v", sc.Text(), err)
		}
		chunks = append(chunks, c)
	}
	if len(chunks) < 2 {
		t.Fatalf("stream too short: %+v", chunks)
	}
	last := chunks[len(chunks)-1]
	if !last.Done || last.Tokens != len(chunks)-1 {
		t.Fatalf("bad terminal chunk %+v for %d token chunks", last, len(chunks)-1)
	}
	// The streamed tokens must match the aggregate reply.
	agg := generate(t, ts.URL, "stream me", 6)
	for i, c := range chunks[:len(chunks)-1] {
		if c.Token != agg.Tokens[i] {
			t.Fatalf("stream token %d = %d, aggregate %d", i, c.Token, agg.Tokens[i])
		}
	}
}

// stepStampWriter is a streaming ResponseWriter that notes how many decode
// iterations the server had run when the first body bytes were written.
type stepStampWriter struct {
	httptest.ResponseRecorder
	steps      func() int64
	firstWrite int64
}

func (w *stepStampWriter) Write(p []byte) (int, error) {
	if w.firstWrite == 0 {
		w.firstWrite = w.steps()
	}
	return w.ResponseRecorder.Write(p)
}

// TestStreamedTokensStreamOnOneP: the decode loop never blocks while it has
// live sessions, so on one P it must yield for the handler to write a chunk.
// The first chunk of a stream has to leave before the session's last Step,
// not after the batch drained.
func TestStreamedTokensStreamOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, _ := genTestServerSeeded(t, 4, 7)
	body, _ := json.Marshal(generateRequest{Text: "stream me", MaxNewTokens: 12, Stream: true})
	w := &stepStampWriter{ResponseRecorder: *httptest.NewRecorder(), steps: srv.gen.stepsRun.Load}
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(body)))
	total := srv.gen.stepsRun.Load()
	if total < 3 {
		t.Fatalf("fixture generated in %d steps; too short to tell streaming from a final flush: %s", total, w.Body)
	}
	if w.firstWrite == 0 || w.firstWrite >= total {
		t.Fatalf("first chunk written after %d of %d decode steps; want it on the wire before the last one", w.firstWrite, total)
	}
}

// TestGenerateClientDisconnectEvicts: a client that goes away mid-stream
// must not hold its batch slot for the rest of its token budget — the
// decode loop evicts the orphaned session at an iteration boundary.
func TestGenerateClientDisconnectEvicts(t *testing.T) {
	srv, ts := genTestServer(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(generateRequest{Text: "abandoned stream", MaxNewTokens: 500, Stream: true})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one token so the session is definitely live, then vanish.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.gen.sched.Idle() {
		if time.Now().After(deadline) {
			t.Fatal("orphaned session still running after disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The freed slot serves new requests normally.
	if got := generate(t, ts.URL, "after the orphan", 4).Tokens; len(got) == 0 {
		t.Fatal("server wedged after client disconnect")
	}
}

func TestGenerateRejectsBadRequests(t *testing.T) {
	_, ts := genTestServer(t, 4)
	resp, err := http.Get(ts.URL + "/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET should 405, got %d", resp.StatusCode)
	}
	r2, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty text should 400, got %d", r2.StatusCode)
	}
}

func TestGenerateDisabledReturns503(t *testing.T) {
	_, ts := testServer(t, 0) // classifier-only server from server_test.go
	body, _ := json.Marshal(generateRequest{Text: "x"})
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("generation-disabled server should 503, got %d", resp.StatusCode)
	}
}

func TestGenerateAfterCloseFails(t *testing.T) {
	srv, ts := genTestServer(t, 4)
	srv.Close()
	body, _ := json.Marshal(generateRequest{Text: "too late"})
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed server should 503, got %d", resp.StatusCode)
	}
}

func TestDetokenizeInvertsTokenize(t *testing.T) {
	const vocab = 300 // covers the byte range: exact inverse
	text := "round trip! \x00\x7f"
	if got := Detokenize(Tokenize(text, vocab), vocab); got != text {
		t.Fatalf("round trip %q -> %q", text, got)
	}
	// Small vocab: printable output, same length.
	small := Detokenize(Tokenize("abc", 64), 64)
	if len(small) != 3 {
		t.Fatalf("small-vocab detokenize length %d", len(small))
	}
	for _, b := range []byte(small) {
		if b < 32 || b > 126 {
			t.Fatalf("unprintable byte %d from small vocab", b)
		}
	}
}
