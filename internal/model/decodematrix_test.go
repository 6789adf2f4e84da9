package model

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/allocator"
)

// matrixGenerator builds one cell of the decode matrix: KV layout ×
// precision × attention arm, on its own device, with the shared test seed so
// every cell owns identical weights.
func matrixGenerator(t *testing.T, cfg Config, paged, fp16, perRow bool) (*Generator, *allocator.Device) {
	t.Helper()
	g, dev := newMigrateGenerator(t, cfg, migrateKind{paged: paged, half: fp16})
	g.PerRowAttention = perRow
	return g, dev
}

// TestDecodeMatrixOnePath is the one-decode-path property over the whole
// {contiguous, paged} × {fp32, fp16} × {grouped, per-row} matrix:
//
//	(a) at equal precision every cell produces the same token streams, bit
//	    for bit, on fuzzed ragged schedules with mid-run joins and evictions
//	    — grouped ≡ per-row and paged ≡ contiguous, the two identities the
//	    span kernel exists to keep;
//	(b) a session exported mid-decode and imported into ANY store kind (all
//	    four source → destination pairs) continues exactly as the
//	    uninterrupted decode does, and both devices' KV gauges drain to zero.
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
			for _, paged := range []bool{false, true} {
				for _, perRow := range []bool{false, true} {
					g, dev := matrixGenerator(t, cfg, paged, fp16, perRow)
					got := scheduleRun(t, g, paged, mems, budgets, joinAt, evictAt, seed, nil)
					if want == nil {
						want = got
					} else if !reflect.DeepEqual(got, want) {
						t.Fatalf("fp16=%v seed %d: cell paged=%v perRow=%v streams diverge from the contiguous grouped cell",
							fp16, seed, paged, perRow)
					}
					if snap := dev.Snapshot(); snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
						t.Fatalf("fp16=%v seed %d paged=%v perRow=%v: KV gauges not drained: %+v", fp16, seed, paged, perRow, snap)
					}
				}
			}

			// (b) Uninterrupted streams with no evictions, then every
			// source → destination hand-off pair against them.
			never := make([]int, len(mems))
			for i := range never {
				never[i] = -1
			}
			ref, _ := matrixGenerator(t, cfg, false, fp16, false)
			whole := scheduleRun(t, ref, false, mems, budgets, make([]int, len(mems)), never, seed, nil)
			for _, srcPaged := range []bool{false, true} {
				for _, dstPaged := range []bool{false, true} {
					pair := fmt.Sprintf("fp16=%v seed %d %v→%v", fp16, seed, srcPaged, dstPaged)
					src, srcDev := matrixGenerator(t, cfg, srcPaged, fp16, false)
					dst, dstDev := matrixGenerator(t, cfg, dstPaged, fp16, false)
					var sessions []*GenSession
					for i := range mems {
						sessions = append(sessions, openScheduleSession(t, src, srcPaged, i, mems[i], budgets[i], seed))
					}
					// Decode a ragged prefix on the source: session i stops
					// after i+1 steps, so exports carry 1, 2, 3, … rows.
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
							t.Fatalf("%s session %d: %v", pair, i, err)
						}
						sessions[i] = moved
					}
					for anyLive(sessions) {
						stepAll(t, dst, sessions)
					}
					for i, s := range sessions {
						if !reflect.DeepEqual(s.Generated(), whole[i]) {
							t.Fatalf("%s session %d: handed-off stream %v != uninterrupted %v", pair, i, s.Generated(), whole[i])
						}
						s.Close()
					}
					for name, dev := range map[string]*allocator.Device{"source": srcDev, "destination": dstDev} {
						if snap := dev.Snapshot(); snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
							t.Fatalf("%s: %s KV gauges not drained: reserved=%d used=%d", pair, name, snap.KVReservedBytes, snap.KVUsedBytes)
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
