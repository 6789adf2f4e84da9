package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, in reference time
// (clock.go). Spans of one request or
// one replayed batch share Group; Parent is the span that caused this one
// (0 for a root). In the layer replay a child is a separate call on the
// identical input, so it is linked to its parent by id, not nested in time.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Group  int    `json:"group"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of one traced pass in memory; main writes them
// out once, at exit.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: now()} }

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent, group int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Group: group,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	return id
}

// time runs fn as a span.
func (r *recorder) time(name string, parent, group int, fn func()) (id int, d time.Duration) {
	start := now()
	fn()
	end := now()
	return r.add(name, parent, group, start, end), end.Sub(start)
}

// addReply records a served request as serving.request (due → last byte)
// with children serving.ttft (due → first byte) and serving.stream (first →
// last byte). It runs on the request's goroutine, inside the paced phase and
// on the P the other requests in flight need: this is the tracing cost
// harness.trace_overhead_share measures.
func (r *recorder) addReply(group int, rep *reply) {
	if len(rep.writes) == 0 {
		return
	}
	first, last := rep.writes[0], rep.writes[len(rep.writes)-1]
	root := r.add("serving.request", 0, group, rep.due, last)
	r.add("serving.ttft", root, group, rep.due, first)
	r.add("serving.stream", root, group, first, last)
}

// total sums the durations of every span called name and counts them.
func (r *recorder) total(name string) (time.Duration, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum time.Duration
	n := 0
	for _, s := range r.spans {
		if s.Name == name {
			sum += time.Duration(s.End - s.Start)
			n++
		}
	}
	return sum, n
}

// runSpans is one traced pass in the -trace-out file. Span ids and start
// times count from the pass's own recorder.
type runSpans struct {
	Workload string `json:"workload"`
	Run      int    `json:"run"`
	Spans    []span `json:"spans"`
}

// writeSpans dumps every traced pass as one JSON array.
func writeSpans(path string, runs []runSpans) error {
	b, err := json.Marshal(runs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
