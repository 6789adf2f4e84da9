package sched

import (
	"math/rand"
	"sync"
	"testing"
)

func genReq(id int64, prompt, maxNew int) *GenRequest {
	return &GenRequest{ID: id, PromptLen: prompt, MaxNew: maxNew}
}

func TestContinuousAdmitRespectsMaxBatch(t *testing.T) {
	s := NewContinuousScheduler(3, 0)
	for i := int64(1); i <= 5; i++ {
		s.Enqueue(genReq(i, 10, 10))
	}
	admitted := s.Admit()
	if len(admitted) != 3 {
		t.Fatalf("admitted %d, want 3", len(admitted))
	}
	// FCFS order.
	for i, r := range admitted {
		if r.ID != int64(i+1) {
			t.Fatalf("admission order broken: %v", admitted)
		}
	}
	if s.QueueLen() != 2 || len(s.running) != 3 {
		t.Fatalf("queue %d running %d", s.QueueLen(), len(s.running))
	}
	// Nothing more fits until an eviction.
	if more := s.Admit(); len(more) != 0 {
		t.Fatalf("admitted %d past the cap", len(more))
	}
	s.Evict(2)
	if more := s.Admit(); len(more) != 1 || more[0].ID != 4 {
		t.Fatalf("post-evict admission: %v", more)
	}
}

func TestContinuousTokenBudget(t *testing.T) {
	s := NewContinuousScheduler(8, 100)
	s.Enqueue(genReq(1, 30, 30)) // reserves 60
	s.Enqueue(genReq(2, 20, 10)) // reserves 30 → 90
	s.Enqueue(genReq(3, 20, 20)) // reserves 40 → would be 130: blocked
	s.Enqueue(genReq(4, 1, 1))   // behind 3: FCFS must not leapfrog
	admitted := s.Admit()
	if len(admitted) != 2 {
		t.Fatalf("admitted %d, want 2 under budget", len(admitted))
	}
	if s.ReservedTokens() != 90 {
		t.Fatalf("reserved %d, want 90", s.ReservedTokens())
	}
	s.Evict(1)
	if s.ReservedTokens() != 30 {
		t.Fatalf("reserved %d after evict, want 30", s.ReservedTokens())
	}
	admitted = s.Admit()
	if len(admitted) != 2 || admitted[0].ID != 3 || admitted[1].ID != 4 {
		t.Fatalf("post-evict admission: %v", admitted)
	}
}

// TestContinuousCancelledHeadDoesNotBlock: an abandoned request at the
// FCFS head must not pin the queue while its reservation would not fit —
// Admit discards it and admits the live requests behind it.
func TestContinuousCancelledHeadDoesNotBlock(t *testing.T) {
	cancelled := map[int64]bool{}
	s := NewContinuousScheduler(4, 100)
	s.Cancelled = func(r *GenRequest) bool { return cancelled[r.ID] }
	s.Enqueue(genReq(1, 30, 30)) // running: reserves 60
	if got := s.Admit(); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("setup admission: %v", got)
	}
	s.Enqueue(genReq(2, 25, 25)) // dead head: reserve 50 would not fit
	s.Enqueue(genReq(3, 10, 10)) // live, fits now
	cancelled[2] = true
	got := s.Admit()
	if len(got) != 1 || got[0].ID != 3 {
		t.Fatalf("cancelled head blocked admission: %v", got)
	}
	if s.QueueLen() != 0 {
		t.Fatalf("dead request still queued (%d)", s.QueueLen())
	}
}

// TestContinuousOversizedRequestStillAdmits: a request larger than the
// whole budget must not deadlock the queue — it runs alone.
func TestContinuousOversizedRequestStillAdmits(t *testing.T) {
	s := NewContinuousScheduler(4, 50)
	s.Enqueue(genReq(1, 100, 100))
	if admitted := s.Admit(); len(admitted) != 1 {
		t.Fatalf("oversized request starved: %v", admitted)
	}
}

// TestContinuousNoDropNoDup: every enqueued request is admitted exactly
// once across a full admit/evict churn.
func TestContinuousNoDropNoDup(t *testing.T) {
	s := NewContinuousScheduler(4, 200)
	const n = 200
	for i := int64(1); i <= n; i++ {
		s.Enqueue(genReq(i, 1+int(i)%40, 1+int(i)%20))
	}
	seen := map[int64]int{}
	for iter := 0; iter < 10*n && !s.Idle(); iter++ {
		for _, r := range s.Admit() {
			seen[r.ID]++
			s.Evict(r.ID) // finish immediately
		}
	}
	if len(seen) != n {
		t.Fatalf("saw %d of %d requests", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("request %d admitted %d times", id, c)
		}
	}
}

// TestContinuousConcurrent hammers the scheduler from producer and
// consumer goroutines; run under -race this is the race-cleanliness check
// for the admission path.
func TestContinuousConcurrent(t *testing.T) {
	s := NewContinuousScheduler(8, 0)
	const producers, perProducer = 4, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				s.Enqueue(genReq(int64(p*perProducer+i+1), 5, 5))
			}
		}(p)
	}
	done := make(chan map[int64]int)
	go func() {
		seen := map[int64]int{}
		for len(seen) < producers*perProducer {
			for _, r := range s.Admit() {
				seen[r.ID]++
				s.Evict(r.ID)
			}
		}
		done <- seen
	}()
	wg.Wait()
	seen := <-done
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("request %d admitted %d times", id, c)
		}
	}
	if !s.Idle() {
		t.Fatal("scheduler not idle after drain")
	}
}

// TestAdmissionUsesReservedFigureConsistently is the reserved-KV regression
// guard: across a fuzzed admit/evict history, the scheduler's budget must
// always equal the sum of GenRequest.ReservedTokens() (prompt + full
// generation budget — the worst-case KV context) over the running set, and
// admission must never overshoot TokenBudget on that figure. If admission
// ever priced a request by anything else (current length, prompt only, …)
// this test catches the drift.
func TestAdmissionUsesReservedFigureConsistently(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		budget := 50 + rng.Intn(200)
		s := NewContinuousScheduler(1+rng.Intn(6), budget)
		running := map[int64]*GenRequest{}
		nextID := int64(1)
		for op := 0; op < 200; op++ {
			switch {
			case rng.Intn(3) > 0:
				r := genReq(nextID, rng.Intn(40), rng.Intn(60))
				nextID++
				s.Enqueue(r)
			case len(running) > 0:
				for id := range running { // evict an arbitrary running request
					s.Evict(id)
					delete(running, id)
					break
				}
			}
			for _, r := range s.Admit() {
				running[r.ID] = r
			}
			want := 0
			for _, r := range running {
				want += r.ReservedTokens()
			}
			if got := s.ReservedTokens(); got != want {
				t.Fatalf("trial %d op %d: scheduler reserves %d, Σ ReservedTokens() of running = %d",
					trial, op, got, want)
			}
			// The single-request override (an oversized request alone in the
			// batch) is the only sanctioned way past the budget.
			if len(running) > 1 && s.ReservedTokens() > budget {
				t.Fatalf("trial %d: %d running requests reserve %d > budget %d",
					trial, len(running), s.ReservedTokens(), budget)
			}
		}
	}
}

// TestContinuousPriorityAcrossEnqueues is the regression for the ordering
// bug fixed in PR 5: the admission queue is ordered at Enqueue, so a
// high-priority request arriving AFTER low-priority work was queued (by an
// earlier serving-loop iteration, while a batch was mid-flight) is admitted
// ahead of it — priority is global across enqueue rounds, not per-round.
func TestContinuousPriorityAcrossEnqueues(t *testing.T) {
	s := NewContinuousScheduler(1, 0)
	s.Enqueue(genReq(1, 10, 10)) // running
	if adm := s.Admit(); len(adm) != 1 || adm[0].ID != 1 {
		t.Fatalf("admit: %v", adm)
	}
	// Round 1 queues low-priority work behind the running request.
	s.Enqueue(genReq(2, 10, 10))
	s.Enqueue(genReq(3, 10, 10))
	if adm := s.Admit(); len(adm) != 0 {
		t.Fatalf("admitted past MaxBatch: %v", adm)
	}
	// Round 2 (a later loop iteration): a high-priority request arrives.
	hi := genReq(4, 10, 10)
	hi.Priority = 5
	s.Enqueue(hi)
	// Ties within priority stay FCFS.
	s.Enqueue(genReq(5, 10, 10))

	s.Evict(1)
	if adm := s.Admit(); len(adm) != 1 || adm[0].ID != 4 {
		t.Fatalf("high-priority request not admitted first: %v", adm)
	}
	s.Evict(4)
	if adm := s.Admit(); len(adm) != 1 || adm[0].ID != 2 {
		t.Fatalf("FCFS within priority broken: %v", adm)
	}
}
