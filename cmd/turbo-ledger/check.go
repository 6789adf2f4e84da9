package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	turbo "repro"
	"repro/internal/serving"
)

// outcome is a reply after parsing: whether it is a well-formed success,
// what it answered, and the times the latency metrics are built from.
type outcome struct {
	rep    *reply
	err    error // non-nil: non-200, malformed, or a stream that ended in an error chunk
	class  int   // classify
	tokens []int // generate
	first  time.Time
	last   time.Time
	// tokenTimes holds one time per token chunk of a stream; nil when the
	// writes could not be matched to chunks one to one.
	tokenTimes []time.Time
}

// parse checks one reply. It runs after the timed phases.
func parse(rep *reply) outcome {
	o := outcome{rep: rep}
	if rep.status != http.StatusOK {
		o.err = fmt.Errorf("status %d: %s", rep.status, bytes.TrimSpace(rep.body.Bytes()))
		return o
	}
	if len(rep.writes) == 0 {
		o.err = fmt.Errorf("empty response")
		return o
	}
	o.first, o.last = rep.writes[0], rep.writes[len(rep.writes)-1]

	if rep.req.Kind == kindClassify {
		var body struct {
			Class *int `json:"class"`
		}
		if err := json.Unmarshal(rep.body.Bytes(), &body); err != nil || body.Class == nil {
			o.err = fmt.Errorf("malformed classify response %q", rep.body.Bytes())
			return o
		}
		o.class = *body.Class
		return o
	}

	lines := bytes.Split(bytes.TrimSpace(rep.body.Bytes()), []byte("\n"))
	done := false
	for _, line := range lines {
		var chunk struct {
			Token  int    `json:"token"`
			Done   bool   `json:"done"`
			Tokens int    `json:"tokens"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(line, &chunk); err != nil {
			o.err = fmt.Errorf("malformed stream chunk %q", line)
			return o
		}
		switch {
		case chunk.Error != "":
			o.err = fmt.Errorf("stream error: %s", chunk.Error)
			return o
		case done:
			o.err = fmt.Errorf("chunk after the terminal chunk")
			return o
		case chunk.Done:
			done = true
			if chunk.Tokens != len(o.tokens) {
				o.err = fmt.Errorf("terminal chunk counts %d tokens, stream carried %d", chunk.Tokens, len(o.tokens))
				return o
			}
		default:
			o.tokens = append(o.tokens, chunk.Token)
		}
	}
	switch {
	case !done:
		o.err = fmt.Errorf("stream ended without a terminal chunk")
	case len(o.tokens) == 0 || len(o.tokens) > rep.req.MaxNew:
		o.err = fmt.Errorf("stream carried %d tokens for max_new_tokens %d", len(o.tokens), rep.req.MaxNew)
	case len(rep.writes) == len(lines):
		o.tokenTimes = rep.writes[:len(lines)-1]
	}
	return o
}

// oracle recomputes sampled responses one request at a time on engines that
// share nothing with the serving instance. Batched and solo execution are
// bit-identical by the repo's own invariant, so any difference is a failure.
type oracle struct {
	rt    *turbo.Runtime
	vocab int
}

func newOracle(b buildSpec) (*oracle, error) {
	rt, err := newRuntime(b)
	if err != nil {
		return nil, fmt.Errorf("oracle runtime: %w", err)
	}
	return &oracle{rt: rt, vocab: encoderConfig().Vocab}, nil
}

// verify returns nil when the outcome matches the solo recomputation.
func (or *oracle) verify(ctx context.Context, o outcome) error {
	toks := serving.Tokenize(o.rep.req.Text, or.vocab)
	if o.rep.req.Kind == kindClassify {
		want, err := or.rt.Classify(ctx, [][]int{toks})
		if err != nil {
			return fmt.Errorf("oracle classify: %w", err)
		}
		if want[0] != o.class {
			return fmt.Errorf("classify %q: served class %d, solo class %d", o.rep.req.Text, o.class, want[0])
		}
		return nil
	}
	want, err := or.generate(toks, o.rep.req.MaxNew)
	if err != nil {
		return err
	}
	if len(want) != len(o.tokens) {
		return fmt.Errorf("generate %q: served %d tokens, solo %d", o.rep.req.Text, len(o.tokens), len(want))
	}
	for i := range want {
		if want[i] != o.tokens[i] {
			return fmt.Errorf("generate %q: token %d served %d, solo %d", o.rep.req.Text, i, o.tokens[i], want[i])
		}
	}
	return nil
}

// generate decodes one prompt alone. The session is closed, not retired, so
// the oracle's prefix cache stays empty and every answer is recomputed.
func (or *oracle) generate(prompt []int, maxNew int) ([]int, error) {
	sessions, err := or.rt.GenEngine.StartSessions([]int64{1}, [][]int{prompt}, []int{maxNew})
	if err != nil {
		return nil, fmt.Errorf("oracle prefill: %w", err)
	}
	defer sessions[0].Close()
	for !sessions[0].Done() {
		if _, err := or.rt.GenEngine.Step(sessions); err != nil {
			return nil, fmt.Errorf("oracle step: %w", err)
		}
	}
	return append([]int(nil), sessions[0].Generated()...), nil
}

// phaseCount is the sent / succeeded / failed report of one phase.
type phaseCount struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// checkReplies parses every phase's replies, then — given an oracle —
// recomputes a seeded 5 % sample of the well-formed ones (at least minSample
// over all phases) against it. It returns the outcomes and counts per phase,
// the verdict of each outcome in its err, and the first few problems in words.
func checkReplies(ctx context.Context, or *oracle, r *rand.Rand, minSample int, phases ...[]*reply) ([][]outcome, []phaseCount, []string) {
	outs := make([][]outcome, len(phases))
	var good []*outcome
	for p, replies := range phases {
		outs[p] = make([]outcome, len(replies))
		for i, rep := range replies {
			outs[p][i] = parse(rep)
			if outs[p][i].err == nil {
				good = append(good, &outs[p][i])
			}
		}
	}
	if or != nil {
		sample := min(max(len(good)/20, minSample), len(good))
		r.Shuffle(len(good), func(i, j int) { good[i], good[j] = good[j], good[i] })
		for _, o := range good[:sample] {
			o.err = or.verify(ctx, *o)
		}
	}

	counts := make([]phaseCount, len(phases))
	var problems []string
	for p := range outs {
		counts[p].Sent = len(outs[p])
		for _, o := range outs[p] {
			if o.err == nil {
				counts[p].Succeeded++
				continue
			}
			counts[p].Failed++
			if len(problems) < 5 {
				problems = append(problems, o.err.Error())
			}
		}
	}
	return outs, counts, problems
}

// durations since due, for the outcomes that succeeded.
func sinceDue(outs []outcome, at func(outcome) time.Time) []time.Duration {
	ds := make([]time.Duration, 0, len(outs))
	for _, o := range outs {
		if o.err == nil {
			ds = append(ds, at(o).Sub(o.rep.due))
		}
	}
	return ds
}
