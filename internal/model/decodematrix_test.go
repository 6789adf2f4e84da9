package model

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/allocator"
	"repro/internal/kernels"
)

// matrixGenerator builds one cell of the decode matrix: precision ×
// attention arm, on its own device, with the shared test seed so every cell
// owns identical weights.
func matrixGenerator(t *testing.T, cfg Config, fp16, perRow bool) (*Generator, *allocator.Device) {
	t.Helper()
	g, dev := newMigrateGenerator(t, cfg, migrateKind{half: fp16})
	g.PerRowAttention = perRow
	return g, dev
}

// TestDecodeMatrixOnePath is the one-decode-path property over the whole
// {fp32, fp16} × {grouped, per-row} matrix:
//
//	(a) at equal precision both arms produce the same token streams, bit for
//	    bit, on fuzzed ragged schedules with mid-run joins and evictions
//	    whose budgets cross block boundaries — grouped ≡ per-row over the
//	    same block tables, the identity the span kernel exists to keep; on
//	    fp16 the grouped arm reads the cross memory through its decoded view
//	    and the per-row arm through a fresh decode of the stored words, and
//	    after every step every live session's view is held to that decode
//	    word for word;
//	(b) sessions exported mid-decode after ragged prefixes and imported
//	    into a fresh generator continue exactly as the uninterrupted decode
//	    does, and both devices' KV gauges drain to zero.
func TestDecodeMatrixOnePath(t *testing.T) {
	cfg := genTestConfig()
	cfg.MaxTargetLen = 96
	seeds := []int64{9001, 9004, 9005}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, fp16 := range []bool{false, true} {
		for _, seed := range seeds {
			mems, budgets, joinAt, evictAt := goldenSchedule(seed)

			var want [][]int
			for _, perRow := range []bool{false, true} {
				g, dev := matrixGenerator(t, cfg, fp16, perRow)
				got := scheduleRun(t, g, mems, budgets, joinAt, evictAt, seed, func(live []*GenSession) {
					checkCrossViews(t, live, fp16)
				})
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("fp16=%v seed %d: the per-row arm's streams diverge from the grouped arm's", fp16, seed)
				}
				if snap := dev.Snapshot(); snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
					t.Fatalf("fp16=%v seed %d perRow=%v: KV gauges not drained: %+v", fp16, seed, perRow, snap)
				}
			}

			// (b) Uninterrupted streams with no evictions, then the hand-off
			// against them.
			never := make([]int, len(mems))
			for i := range never {
				never[i] = -1
			}
			ref, _ := matrixGenerator(t, cfg, fp16, false)
			whole := scheduleRun(t, ref, mems, budgets, make([]int, len(mems)), never, seed, nil)
			run := fmt.Sprintf("fp16=%v seed %d", fp16, seed)
			src, srcDev := matrixGenerator(t, cfg, fp16, false)
			dst, dstDev := matrixGenerator(t, cfg, fp16, false)
			var sessions []*GenSession
			for i := range mems {
				sessions = append(sessions, openScheduleSession(t, src, i, mems[i], budgets[i], seed))
			}
			// Decode a ragged prefix on the source: session i stops after i+1
			// steps, so exports carry 1, 2, 3, … rows.
			for step := 0; step < len(sessions); step++ {
				stepAll(t, src, sessions[step:])
			}
			for i, s := range sessions {
				snap, err := s.Export()
				if err != nil {
					t.Fatal(err)
				}
				s.Close()
				moved, err := dst.ImportSession(snap)
				if err != nil {
					t.Fatalf("%s session %d: %v", run, i, err)
				}
				sessions[i] = moved
			}
			for anyLive(sessions) {
				checkCrossViews(t, sessions, fp16) // rebuilt by the import
				stepAll(t, dst, sessions)
			}
			for i, s := range sessions {
				if !reflect.DeepEqual(s.Generated(), whole[i]) {
					t.Fatalf("%s session %d: handed-off stream %v != uninterrupted %v", run, i, s.Generated(), whole[i])
				}
				s.Close()
			}
			for name, dev := range map[string]*allocator.Device{"source": srcDev, "destination": dstDev} {
				if snap := dev.Snapshot(); snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
					t.Fatalf("%s: %s KV gauges not drained: reserved=%d used=%d", run, name, snap.KVReservedBytes, snap.KVUsedBytes)
				}
			}
		}
	}
}

// checkCrossViews holds every running session's cross memory to the view
// invariant: on fp16 each K and V span carries a decoded view equal, bit for
// bit, to a fresh decode of its stored words; on fp32 none does.
func checkCrossViews(t *testing.T, live []*GenSession, fp16 bool) {
	t.Helper()
	for _, s := range live {
		for l := range s.cc.k {
			for _, span := range []kernels.KVSpans{s.cc.k[l], s.cc.v[l]} {
				if !fp16 {
					if span.View != nil {
						t.Fatalf("session %d layer %d: an fp32 span carries a decoded view", s.ID, l)
					}
					continue
				}
				if span.View == nil || !span.Covers(s.cc.srcLen, s.cc.hidden) {
					t.Fatalf("session %d layer %d: a running fp16 session's cross memory has no decoded view", s.ID, l)
				}
				fresh := span.Decoded(s.cc.srcLen, s.cc.hidden)
				for b := range fresh {
					for i, want := range fresh[b] {
						if math.Float32bits(span.View[b][i]) != math.Float32bits(want) {
							t.Fatalf("session %d layer %d span %d word %d: view %#08x, fresh decode %#08x",
								s.ID, l, b, i, math.Float32bits(span.View[b][i]), math.Float32bits(want))
						}
					}
				}
			}
		}
	}
}

func anyLive(sessions []*GenSession) bool {
	for _, s := range sessions {
		if !s.Done() {
			return true
		}
	}
	return false
}
