package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// reply is what the harness keeps of one request: when it was due, when
// each write of the response landed — both on the reference clock (clock.go)
// — and the raw bytes for checking later (parsing is kept out of the timed
// phases).
type reply struct {
	req    *request
	due    time.Time
	status int
	writes []time.Time // one per ResponseWriter.Write: one NDJSON chunk each on a stream
	body   bytes.Buffer
	traced bool // due in a traced window: the recorder holds spans for this request
}

// replyWriter is the benchmark's own http.ResponseWriter and http.Flusher:
// it timestamps every write, so first-token and inter-token times are
// measured where the handler hands bytes over, with no socket in between.
type replyWriter struct {
	header http.Header
	rep    *reply
}

func (w *replyWriter) Header() http.Header { return w.header }

func (w *replyWriter) WriteHeader(code int) {
	if w.rep.status == 0 {
		w.rep.status = code
	}
}

func (w *replyWriter) Write(p []byte) (int, error) {
	if w.rep.status == 0 {
		w.rep.status = http.StatusOK
	}
	w.rep.writes = append(w.rep.writes, now())
	return w.rep.body.Write(p)
}

func (w *replyWriter) Flush() {}

// serve sends rep's request through the handler on the calling goroutine
// and returns when the handler has written its last byte.
func serve(ctx context.Context, h http.Handler, rep *reply) {
	q := rep.req
	if q.Kind == kindGenerate {
		rep.writes = make([]time.Time, 0, q.MaxNew+1)
	}
	r, err := http.NewRequestWithContext(ctx, http.MethodPost, q.Kind.path(), bytes.NewReader(q.Body))
	if err != nil {
		rep.status = http.StatusBadRequest
		return
	}
	h.ServeHTTP(&replyWriter{header: http.Header{}, rep: rep}, r)
}

// getStats reads /v1/stats through the handler into a map, so a renamed or
// removed counter costs one per-layer metric, not the run.
func getStats(ctx context.Context, h http.Handler) (map[string]any, error) {
	rep := &reply{}
	r, err := http.NewRequestWithContext(ctx, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	h.ServeHTTP(&replyWriter{header: http.Header{}, rep: rep}, r)
	if rep.status != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats: status %d", rep.status)
	}
	var m map[string]any
	if err := json.Unmarshal(rep.body.Bytes(), &m); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	return m, nil
}

// gaugeSample is one 20 Hz sample of what the per-layer metrics watch while
// a phase runs. It never reads /v1/stats: at the seed that handler walks the
// prefix cache's map without a lock while the decode loop writes it, and a
// poll under generation load can end the process (CHANGES.md).
type gaugeSample struct {
	inFlight   int   // requests launched and not yet answered, the harness's own count
	kvReserved int64 // replica 0's KV byte gauges, from GenEngine.MemoryStats
	kvUsed     int64
}

const pollEvery = 50 * time.Millisecond

// pollGauges samples until stop closes and returns the samples.
func pollGauges(sys *system, inFlight *atomic.Int64, stop <-chan struct{}) []gaugeSample {
	var samples []gaugeSample
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return samples
		case <-tick.C:
			mem := sys.rt.GenEngine.MemoryStats()
			samples = append(samples, gaugeSample{int(inFlight.Load()), mem.KVReservedBytes, mem.KVUsedBytes})
		}
	}
}

// segment is one open-loop stretch of a schedule. Due times count from its
// start on the reference clock. wall is its length on the wall clock: the
// generator stops launching when that has passed, so a run takes the time it
// was given however slow the machine is, and the schedule is drawn long
// enough not to run dry before.
type segment struct {
	reqs []request
	due  []time.Duration
	wall time.Duration
}

// traceWindow is the stretch of an open-loop schedule that is traced or
// untraced as a whole when a recorder is given.
const traceWindow = time.Second

// phaseResult is everything one phase observed. Times are reference time.
type phaseResult struct {
	replies []*reply
	late    []time.Duration // open loop: how far behind its due time each request was launched
	elapsed time.Duration   // closed loop: the measuring window
	ranDry  bool            // closed loop: the request list ended before the window did
	before  map[string]any  // open loop: /v1/stats at the phase boundaries
	after   map[string]any
	polls   []gaugeSample
	// open loop: requests in flight as the generator launched the middle and
	// the last request it sent
	inFlightMid, inFlightEnd int
}

// runOpenLoop sends reqs on their schedule regardless of how the system
// keeps up: one generator goroutine launches each request at its due time,
// and every in-flight request is a parked goroutine. With a recorder, the
// requests due in every other traceWindow record their spans as they
// complete, on the one P the requests in flight beside them run on; the
// windows between stay untraced, so the two halves of one phase give the
// tracing overhead.
func runOpenLoop(ctx context.Context, sys *system, seg segment, rec *recorder) phaseResult {
	h, reqs, due := sys.handler, seg.reqs, seg.due
	var res phaseResult
	res.before, _ = getStats(ctx, h)
	start, deadline := now(), time.Now().Add(seg.wall)
	stop := make(chan struct{})
	pollDone := make(chan struct{})
	var inFlight atomic.Int64
	go func() {
		defer close(pollDone)
		res.polls = pollGauges(sys, &inFlight, stop)
	}()

	var wg sync.WaitGroup
	var inFlightAt []int // in flight as request i was launched
	for i := range reqs {
		at := start.Add(due[i])
		if !sleepUntil(at, deadline) {
			break
		}
		rep := &reply{req: &reqs[i], due: at}
		res.replies = append(res.replies, rep)
		res.late = append(res.late, now().Sub(at))
		inFlightAt = append(inFlightAt, int(inFlight.Add(1)))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			serve(ctx, h, rep)
			inFlight.Add(-1)
			if rec != nil && int(due[i]/traceWindow)%2 == 0 {
				rec.addReply(i, rep)
				rep.traced = true
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-pollDone
	if n := len(inFlightAt); n > 0 {
		res.inFlightMid, res.inFlightEnd = inFlightAt[n/2], inFlightAt[n-1]
	}
	res.after, _ = getStats(ctx, h)
	return res
}

// satRamp is the share of a saturation window left out at its start, while
// the clients' first requests, all launched at once, spread out.
const satRamp = 0.1

// runClosedLoop runs satClients logical clients for d of wall time: each
// sends the next request of the list as soon as its previous one completes.
// The replies it returns are those that completed after the ramp and before
// the window closed, elapsed being the reference time between the two; a
// request in flight at either end counts where it completes, so none is
// counted for less time than it took.
func runClosedLoop(ctx context.Context, h http.Handler, reqs []request, d time.Duration) phaseResult {
	var next atomic.Int64
	var closed atomic.Bool
	perClient := make([][]*reply, satClients)
	var wg sync.WaitGroup
	for c := 0; c < satClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !closed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				rep := &reply{req: &reqs[i], due: now()}
				serve(ctx, h, rep)
				perClient[c] = append(perClient[c], rep)
			}
		}(c)
	}
	ramp := time.Duration(satRamp * float64(d))
	time.Sleep(ramp)
	start := now()
	time.Sleep(d - ramp)
	end := now()
	closed.Store(true)
	wg.Wait()
	res := phaseResult{elapsed: end.Sub(start), ranDry: int(next.Load()) > len(reqs)}
	for _, reps := range perClient {
		for _, rep := range reps {
			if n := len(rep.writes); n > 0 && rep.writes[n-1].After(start) && !rep.writes[n-1].After(end) {
				res.replies = append(res.replies, rep)
			}
		}
	}
	return res
}
