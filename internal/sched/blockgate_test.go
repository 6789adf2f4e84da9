package sched

import "testing"

// fakePool is a free-block counter standing in for allocator.BlockPool in
// gate tests (sched must not import allocator).
type fakePool struct{ free int }

// TestBlockGateAdmission: with a gate installed, admission follows actual
// pool occupancy — not the worst-case token ledger — and stops at the
// watermark.
func TestBlockGateAdmission(t *testing.T) {
	pool := &fakePool{free: 10}
	s := NewContinuousScheduler(8, 1) // TokenBudget 1 would block everything if consulted
	s.Gate = &BlockGate{
		Free:      func() int { return pool.free },
		Need:      func(*GenRequest) int { return 4 },
		Watermark: 2,
	}
	for i := 0; i < 3; i++ {
		// Huge MaxNew: worst-case reservations would admit only one.
		s.Enqueue(&GenRequest{ID: int64(i), PromptLen: 100, MaxNew: 1000})
	}
	// free=10: first admits unconditionally; second needs 10-4 >= 2 ✓; the
	// pool then carries 8 blocks of live tables, so the third (free=2,
	// 2-4 < 2) must wait.
	got := s.Admit()
	if len(got) != 2 {
		t.Fatalf("admitted %d with free=10, want 2", len(got))
	}
	pool.free -= 8
	if more := s.Admit(); len(more) != 0 {
		t.Fatalf("admitted %d past the watermark", len(more))
	}
	// Blocks come free (completions): the third gets in.
	pool.free += 6
	if more := s.Admit(); len(more) != 1 {
		t.Fatalf("admitted %d after blocks freed, want 1", len(more))
	}
}

// TestBlockGateFirstRequestAlwaysAdmits: an empty running set admits the
// head regardless of the gate, mirroring the token-budget bypass — a pool
// too small for one request would otherwise deadlock the queue.
func TestBlockGateFirstRequestAlwaysAdmits(t *testing.T) {
	s := NewContinuousScheduler(8, 0)
	s.Gate = &BlockGate{
		Free:      func() int { return 0 },
		Need:      func(*GenRequest) int { return 4 },
		Watermark: 2,
	}
	s.Enqueue(&GenRequest{ID: 1})
	if got := s.Admit(); len(got) != 1 {
		t.Fatalf("empty running set admitted %d, want 1", len(got))
	}
}

// TestPreemptLowestSelection: lowest priority first, ties broken by latest
// arrival, the excluded ID never chosen, counters and ledger updated.
func TestPreemptLowestSelection(t *testing.T) {
	s := NewContinuousScheduler(8, 0)
	reqs := []*GenRequest{
		{ID: 1, Priority: 2, Arrival: 1.0, MaxNew: 10},
		{ID: 2, Priority: 0, Arrival: 2.0, MaxNew: 10},
		{ID: 3, Priority: 0, Arrival: 5.0, MaxNew: 10},
		{ID: 4, Priority: 1, Arrival: 0.5, MaxNew: 10},
	}
	for _, r := range reqs {
		s.Enqueue(r)
	}
	if n := len(s.Admit()); n != 4 {
		t.Fatalf("admitted %d", n)
	}
	ledger := s.ReservedTokens()

	v := s.PreemptLowest(-1)
	if v == nil || v.ID != 3 {
		t.Fatalf("first victim %+v, want ID 3 (priority 0, latest arrival)", v)
	}
	if got := s.ReservedTokens(); got != ledger-v.ReservedTokens() {
		t.Fatalf("ledger %d after preempt, want %d", got, ledger-v.ReservedTokens())
	}
	if v = s.PreemptLowest(2); v == nil || v.ID != 4 {
		t.Fatalf("victim with ID 2 excluded: %+v, want ID 4", v)
	}
	if v = s.PreemptLowest(2); v == nil || v.ID != 1 {
		t.Fatalf("victim %+v, want ID 1", v)
	}
	if v = s.PreemptLowest(2); v != nil {
		t.Fatalf("only the excluded request left, got victim %+v", v)
	}
	if s.Preemptions() != 3 {
		t.Fatalf("preemptions %d, want 3", s.Preemptions())
	}
	if len(s.running) != 1 {
		t.Fatalf("running %d, want 1", len(s.running))
	}
}

// TestEnqueueFrontOrdering: a preempted request re-enters ahead of its
// equal-priority FCFS peers but never jumps a higher priority class.
func TestEnqueueFrontOrdering(t *testing.T) {
	s := NewContinuousScheduler(1, 0) // MaxBatch 1: admission order = queue order
	s.Enqueue(&GenRequest{ID: 1, Priority: 5})
	s.Enqueue(&GenRequest{ID: 2, Priority: 0})
	s.Enqueue(&GenRequest{ID: 3, Priority: 0})
	s.EnqueueFront(&GenRequest{ID: 4, Priority: 0}) // preempted victim returns
	want := []int64{1, 4, 2, 3}
	for i, id := range want {
		got := s.Admit()
		if len(got) != 1 || got[0].ID != id {
			t.Fatalf("admission %d: got %v, want ID %d", i, got, id)
		}
		s.Evict(got[0].ID)
	}
}
