package sched

import (
	"fmt"
	"sort"
	"sync"
)

// GenRequest is one queued generation request: unlike the one-shot Request,
// its device-time footprint grows as it decodes, so the continuous
// scheduler tracks both the prompt it arrives with and the token budget it
// may consume.
type GenRequest struct {
	ID        int64
	PromptLen int     // prompt tokens (encoder-side cost, cross-attention width)
	MaxNew    int     // generation budget (worst-case KV length)
	Arrival   float64 // arrival time in seconds (virtual or wall)
	// Deadline is the absolute time (same clock as Arrival, seconds) past
	// which the request should be dropped instead of scheduled; 0 = none.
	// Enforcement lives in the serving layer (drop before prefill, count);
	// the field travels with the request so admission policies can see it.
	Deadline float64
	// Priority orders admission within the queue: higher first, ties FCFS.
	Priority int
	// Payload carries application data through the scheduler untouched.
	Payload interface{}
}

// Expired reports whether the request's deadline (if any) has passed at
// the given time (same clock as Arrival).
func (r *GenRequest) Expired(now float64) bool {
	return r.Deadline > 0 && now > r.Deadline
}

// ContinuousScheduler performs iteration-level (continuous) batching for
// autoregressive generation: instead of partitioning a closed queue into
// batches that run start-to-finish, it admits requests into the running set
// between decode iterations and evicts them the moment they finish, so a
// short completion never waits for a long batch-mate and new arrivals never
// wait for a whole batch to retire.
//
// Admission is priority-ordered (higher Priority first, FCFS within a
// priority — the queue is kept ordered at Enqueue, so the ordering holds
// across serving-loop iterations, not just within one) under two
// sequence-length-aware limits:
//
//   - MaxBatch concurrent sequences (GEMM row height per iteration), and
//   - TokenBudget, a cap on the sum of worst-case context lengths
//     (PromptLen+MaxNew) across running requests — the KV-cache footprint
//     guard. Reserving the worst case up front means an admitted request
//     can always run to completion without mid-flight eviction.
//
// When a BlockGate is installed (paged KV), the worst-case TokenBudget
// check is replaced by actual block consumption: a request is admitted
// while the pool can cover its next decode step and stay above the
// watermark. Admission is then optimistic — a long tail of decoding can
// still run the pool dry — so the serving loop pairs the gate with
// PreemptLowest: the lowest-priority (ties: latest-arriving) running
// request is pushed back to the FRONT of its priority class and recomputed
// on readmission, which greedy determinism makes lossless.
//
// All methods are safe for concurrent use.
type ContinuousScheduler struct {
	MaxBatch    int // max concurrent sequences (default 8)
	TokenBudget int // cap on Σ reserved tokens; 0 = unlimited; ignored under a BlockGate

	// Cancelled, when non-nil, reports a queued request as abandoned.
	// Admit discards such requests instead of admitting them, so a dead
	// request at the FCFS head cannot block live ones behind it while its
	// reservation would not fit. Set before the first Admit call.
	Cancelled func(*GenRequest) bool

	// Gate, when non-nil, switches admission from worst-case token
	// reservations to actual KV block consumption. Set before the first
	// Admit call.
	Gate *BlockGate

	mu       sync.Mutex
	queue    []*GenRequest
	running  map[int64]*GenRequest
	reserved map[int64]int // worst-case tokens reserved per running request
	tokens   int           // Σ reserved
	preempts int64
}

// BlockGate gates admission on a KV block pool's actual occupancy instead
// of worst-case token math.
type BlockGate struct {
	// Free returns the pool's currently free block count.
	Free func() int
	// Need returns the blocks the request must be able to acquire to run
	// its first decode step (not its worst case).
	Need func(*GenRequest) int
	// Watermark is the free-block floor admission must not dip below —
	// headroom for the running set's own growth between iterations.
	Watermark int
}

// NewContinuousScheduler builds a scheduler with the given limits.
func NewContinuousScheduler(maxBatch, tokenBudget int) *ContinuousScheduler {
	if maxBatch < 1 {
		maxBatch = 8
	}
	return &ContinuousScheduler{
		MaxBatch:    maxBatch,
		TokenBudget: tokenBudget,
		running:     map[int64]*GenRequest{},
		reserved:    map[int64]int{},
	}
}

// ReservedTokens returns the worst-case token reservation admission control
// budgets for this request: prompt plus the full generation budget (the KV
// context the session could reach). This is the figure Admit charges
// against TokenBudget and Evict refunds — exported so serving stats and
// regression tests can pin admission to it.
func (r *GenRequest) ReservedTokens() int {
	n := r.PromptLen + r.MaxNew
	if n < 1 {
		n = 1
	}
	return n
}

// Enqueue adds a request to the admission queue, keeping the queue ordered
// highest priority first (FCFS within a priority). Ordering at enqueue —
// not at admission — means a high-priority request arriving while earlier
// low-priority work is still waiting for budget is admitted ahead of it,
// even though they were enqueued by different serving-loop iterations.
func (s *ContinuousScheduler) Enqueue(r *GenRequest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.queue), func(i int) bool { return s.queue[i].Priority < r.Priority })
	s.queue = append(s.queue, nil)
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = r
}

// Admit moves as many queued requests as fit into the running set and
// returns them. Called by the serving loop between decode iterations.
// FCFS: a request that does not fit blocks everything behind it, so
// completion order stays fair under overload.
func (s *ContinuousScheduler) Admit() []*GenRequest {
	s.mu.Lock()
	defer s.mu.Unlock()
	var admitted []*GenRequest
	granted := 0 // blocks promised to requests admitted in THIS call
	for len(s.queue) > 0 && len(s.running) < s.MaxBatch {
		r := s.queue[0]
		if s.Cancelled != nil && s.Cancelled(r) {
			s.queue = s.queue[1:]
			continue
		}
		need := r.ReservedTokens()
		if s.Gate != nil {
			// Block-consumption admission: the first running request always
			// fits (the pool either carries it or preemption cannot help);
			// after that, admit only while the pool covers the request's
			// first step and stays above the watermark. Blocks are consumed
			// at decode steps, not here, so Free() is constant within one
			// call — `granted` charges this batch's own admissions.
			bn := s.Gate.Need(r)
			if len(s.running) > 0 && s.Gate.Free()-granted-bn < s.Gate.Watermark {
				break
			}
			granted += bn
		} else if s.TokenBudget > 0 && len(s.running) > 0 && s.tokens+need > s.TokenBudget {
			break
		}
		s.queue = s.queue[1:]
		s.running[r.ID] = r
		s.reserved[r.ID] = need
		s.tokens += need
		admitted = append(admitted, r)
	}
	return admitted
}

// Evict removes a finished (or cancelled) request from the running set,
// returning its token reservation to the budget. Evicting an unknown ID
// panics — it is a bookkeeping bug in the serving loop.
func (s *ContinuousScheduler) Evict(id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.running[id]; !ok {
		panic(fmt.Sprintf("sched: evict of unknown request %d", id))
	}
	s.tokens -= s.reserved[id]
	delete(s.running, id)
	delete(s.reserved, id)
}

// EnqueueFront re-queues a preempted request at the FRONT of its priority
// class (ahead of equal-priority FCFS arrivals), so a victim of pool
// pressure is first in line when blocks come free instead of starving
// behind the backlog it was preempted for.
func (s *ContinuousScheduler) EnqueueFront(r *GenRequest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.queue), func(i int) bool { return s.queue[i].Priority <= r.Priority })
	s.queue = append(s.queue, nil)
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = r
}

// PreemptLowest removes and returns the most preemptible running request —
// lowest Priority, ties broken by latest Arrival (the newcomer yields to
// the long-running) — excluding the given ID (the request whose block
// shortage triggered the preemption must not preempt itself). Returns nil
// when no candidate exists. The caller owns the rest: free the victim's
// session and EnqueueFront it for lossless recompute-on-readmit.
func (s *ContinuousScheduler) PreemptLowest(exclude int64) *GenRequest {
	s.mu.Lock()
	defer s.mu.Unlock()
	var victim *GenRequest
	for id, r := range s.running {
		if id == exclude {
			continue
		}
		if victim == nil || r.Priority < victim.Priority ||
			(r.Priority == victim.Priority && r.Arrival > victim.Arrival) {
			victim = r
		}
	}
	if victim == nil {
		return nil
	}
	s.tokens -= s.reserved[victim.ID]
	delete(s.running, victim.ID)
	delete(s.reserved, victim.ID)
	s.preempts++
	return victim
}

// Preemptions returns the cumulative PreemptLowest count.
func (s *ContinuousScheduler) Preemptions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.preempts
}

// QueueLen returns the number of requests waiting for admission.
func (s *ContinuousScheduler) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// ReservedTokens returns the budget currently held by running requests.
func (s *ContinuousScheduler) ReservedTokens() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tokens
}

// Idle reports whether nothing is queued or running.
func (s *ContinuousScheduler) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) == 0 && len(s.running) == 0
}

// Drain empties the admission queue, returning the dropped requests
// (server shutdown: fail them without running).
func (s *ContinuousScheduler) Drain() []*GenRequest {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := s.queue
	s.queue = nil
	return dropped
}
