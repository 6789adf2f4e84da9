package model

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/allocator"
	"repro/internal/kernels"
)

// migrateKind is one of the two precisions a snapshot must round-trip
// through bit-identically.
type migrateKind struct {
	name string
	half bool
}

var migrateKinds = []migrateKind{
	{"paged-fp32", false},
	{"paged-fp16", true},
}

// newMigrateGenerator builds one generator of the given kind on its own
// device and pool, with the shared test seed so every generator in a trial
// owns identical weights.
func newMigrateGenerator(t *testing.T, cfg Config, kind migrateKind) (*Generator, *allocator.Device) {
	t.Helper()
	g, dev, _ := newTestGenerator(t, cfg, 4096, 0)
	if kind.half {
		g.EnableFP16()
	}
	return g, dev
}

// stepAll advances every unfinished session one ragged iteration.
func stepAll(t *testing.T, g *Generator, sessions []*GenSession) {
	t.Helper()
	var live []*GenSession
	for _, s := range sessions {
		if !s.Done() {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return
	}
	if _, err := g.Step(live); err != nil {
		t.Fatal(err)
	}
}

// TestKVHandoffRoundTripFuzz is the hand-off property test: at both
// precisions and on fuzzed mixed context lengths, a session exported
// mid-decode must import into a fresh same-weights generator with (a) a
// bit-identical re-export — every KV word, fp16 rows as raw binary16,
// survives the round trip — and (b) a continued stream identical to the
// source session's, on that generator and on a second one the same snapshot
// is imported into (import does not consume it). All destination KV gauges
// must drain to exactly zero afterwards.
func TestKVHandoffRoundTripFuzz(t *testing.T) {
	cfg := genTestConfig()
	for _, kind := range migrateKinds {
		kind := kind
		t.Run(kind.name, func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				rng := rand.New(rand.NewSource(int64(100*trial + 7)))
				src, srcDev := newMigrateGenerator(t, cfg, kind)

				// Mixed context lengths: every session gets its own source
				// length, budget, and join step, so exports happen out of a
				// raggedly batched cache, not a lone clean one.
				n := 2 + rng.Intn(3)
				sessions := make([]*GenSession, n)
				for i := range sessions {
					srcLen := 1 + rng.Intn(18)
					budget := 4 + rng.Intn(20)
					s, err := src.NewSession(int64(trial*100+i), []int{trial, i}, testMemory(int64(i*31+trial), srcLen, cfg.Hidden), budget)
					if err != nil {
						t.Fatal(err)
					}
					sessions[i] = s
				}
				for k := rng.Intn(8); k > 0; k-- {
					stepAll(t, src, sessions)
				}

				for i, s := range sessions {
					if s.Done() {
						s.Close()
						continue
					}
					snap, err := s.Export()
					if err != nil {
						t.Fatal(err)
					}

					// (a) The import must re-export bit-identically.
					dst, dstDev := newMigrateGenerator(t, cfg, kind)
					imported, err := dst.ImportSession(snap)
					if err != nil {
						t.Fatal(err)
					}
					again, err := imported.Export()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(snap, again) {
						t.Fatalf("%s trial %d session %d: snapshot not bit-identical after import/re-export", kind.name, trial, i)
					}

					// (b) The snapshot is not consumed: a second import into
					// another generator must also continue identically.
					second, secondDev := newMigrateGenerator(t, cfg, kind)
					secondImported, err := second.ImportSession(snap)
					if err != nil {
						t.Fatal(err)
					}

					for !s.Done() {
						stepAll(t, src, sessions[i:i+1])
					}
					for !imported.Done() {
						stepAll(t, dst, []*GenSession{imported})
					}
					for !secondImported.Done() {
						stepAll(t, second, []*GenSession{secondImported})
					}
					want := s.Generated()
					for name, got := range map[string][]int{"first import": imported.Generated(), "second import": secondImported.Generated()} {
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%s trial %d session %d (%s): migrated stream %v != source %v", kind.name, trial, i, name, got, want)
						}
					}
					s.Close()
					imported.Close()
					secondImported.Close()
					for name, dev := range map[string]*allocator.Device{"dest": dstDev, "second dest": secondDev} {
						snap := dev.Snapshot()
						if snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
							t.Fatalf("%s trial %d session %d: %s KV gauges not drained: reserved=%d used=%d",
								kind.name, trial, i, name, snap.KVReservedBytes, snap.KVUsedBytes)
						}
					}
				}
				if snap := srcDev.Snapshot(); snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
					t.Fatalf("%s trial %d: source KV gauges not drained: reserved=%d used=%d",
						kind.name, trial, snap.KVReservedBytes, snap.KVUsedBytes)
				}
			}
		})
	}
}

// TestKVHandoffSnapshotBytes pins the migration payload accounting the
// router's kv_migrated_bytes counter reconciles against: a snapshot prices
// exactly the KV bytes the session occupied at export — (srcLen + kvLen)
// rows × layers × K and V × hidden × element size.
func TestKVHandoffSnapshotBytes(t *testing.T) {
	cfg := genTestConfig()
	for _, kind := range migrateKinds {
		g, _ := newMigrateGenerator(t, cfg, kind)
		const srcLen = 9
		s, err := g.NewSession(1, []int{3}, testMemory(3, srcLen, cfg.Hidden), 12)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			stepAll(t, g, []*GenSession{s})
		}
		snap, err := s.Export()
		if err != nil {
			t.Fatal(err)
		}
		elem := int64(4)
		if kind.half {
			elem = 2
		}
		want := int64(srcLen+snap.KVLen) * int64(cfg.Layers) * 2 * int64(cfg.Hidden) * elem
		if got := snap.Bytes(); got != want {
			t.Fatalf("%s: snapshot bytes %d, want %d", kind.name, got, want)
		}
		if snap.KVLen == 0 {
			t.Fatalf("%s: expected self-KV rows after 5 steps", kind.name)
		}
		s.Close()
	}
}

// TestKVHandoffExportClosedSession: exporting a closed session must fail
// cleanly instead of reading freed KV.
func TestKVHandoffExportClosedSession(t *testing.T) {
	cfg := genTestConfig()
	g, _ := newMigrateGenerator(t, cfg, migrateKinds[0])
	s, err := g.NewSession(1, []int{3}, testMemory(3, 5, cfg.Hidden), 8)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Export(); err == nil {
		t.Fatal("export of a closed session succeeded")
	}
}

// TestKVHandoffImportValidation: geometry and numeric-route mismatches must
// be refused — importing an fp16 snapshot into an fp32 generator would
// silently re-quantise the KV and break bit-identity.
func TestKVHandoffImportValidation(t *testing.T) {
	cfg := genTestConfig()
	src, _ := newMigrateGenerator(t, cfg, migrateKind{half: true})
	s, err := src.NewSession(1, []int{3}, testMemory(3, 5, cfg.Hidden), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}

	fp32Dst, _ := newMigrateGenerator(t, cfg, migrateKind{})
	if _, err := fp32Dst.ImportSession(snap); err == nil {
		t.Fatal("fp16 snapshot imported into an fp32 generator")
	}

	smallCfg := cfg
	smallCfg.Hidden, smallCfg.Heads, smallCfg.Inter = 16, 2, 32
	smallDst, _ := newMigrateGenerator(t, smallCfg, migrateKind{half: true})
	if _, err := smallDst.ImportSession(snap); err == nil {
		t.Fatal("snapshot imported into a mismatched geometry")
	}
	if _, err := fp32Dst.ImportSession(nil); err == nil {
		t.Fatal("nil snapshot imported")
	}
}

// TestKVHandoffImportRejectsMalformedSnapshots: a snapshot arrives from
// another replica, so ImportSession must refuse one that does not hold what
// it declares — with an error, never a panic, and never a session whose first
// Step would index out of range — and a refused import must hold nothing:
// KV gauges, live bytes and pool blocks all back at their pre-call values.
func TestKVHandoffImportRejectsMalformedSnapshots(t *testing.T) {
	cfg := genTestConfig()
	cases := []struct {
		name   string
		mutate func(s *SessionSnapshot)
	}{
		{"truncated self layers", func(s *SessionSnapshot) { s.SelfK = s.SelfK[:1] }},
		{"truncated cross layers", func(s *SessionSnapshot) { s.CrossV = s.CrossV[:1] }},
		{"no cross layers", func(s *SessionSnapshot) { s.CrossK, s.CrossV = nil, nil }},
		{"short self slab", func(s *SessionSnapshot) { s.SelfV[1] = chop(s.SelfV[1], 1) }},
		{"short cross slab", func(s *SessionSnapshot) { s.CrossK[0] = chop(s.CrossK[0], s.Hidden) }},
		{"wrong hidden", func(s *SessionSnapshot) { s.Hidden *= 2 }},
		{"slabs of a smaller hidden", func(s *SessionSnapshot) {
			for l := range s.SelfK {
				s.SelfK[l], s.SelfV[l] = s.SelfK[l].Flatten(s.KVLen, s.Hidden/2), s.SelfV[l].Flatten(s.KVLen, s.Hidden/2)
			}
		}},
		{"wrong precision flag", func(s *SessionSnapshot) { s.Half = !s.Half }},
		{"wrong precision spans", func(s *SessionSnapshot) {
			for l := range s.SelfK {
				s.SelfK[l] = recode(s.SelfK[l], s.KVLen*s.Hidden)
			}
		}},
		{"KVLen past the rows present", func(s *SessionSnapshot) { s.KVLen += 3 }},
		{"SrcLen past the rows present", func(s *SessionSnapshot) { s.SrcLen++ }},
		{"no cross rows", func(s *SessionSnapshot) { s.SrcLen = 0 }},
		{"zero rows per span", func(s *SessionSnapshot) { s.SelfK[0].Rows = 0 }},
		{"next token outside the vocabulary", func(s *SessionSnapshot) { s.Next = cfg.Vocab }},
	}
	for _, kind := range migrateKinds {
		src, _ := newMigrateGenerator(t, cfg, kind)
		sess, err := src.NewSession(1, []int{3}, testMemory(3, 7, cfg.Hidden), 12)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			stepAll(t, src, []*GenSession{sess})
		}
		dst, dev := newMigrateGenerator(t, cfg, kind)
		// A live neighbour, so "back to the pre-call values" is not just zero.
		neighbour, err := dst.NewSession(2, []int{4}, testMemory(4, 3, cfg.Hidden), 4)
		if err != nil {
			t.Fatal(err)
		}
		before := dev.Snapshot()
		for _, tc := range cases {
			snap, err := sess.Export()
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(snap)
			got, err := dst.ImportSession(snap)
			if err == nil {
				got.Close()
				t.Errorf("%s: %s: malformed snapshot imported", kind.name, tc.name)
			}
			after := dev.Snapshot()
			if after.KVReservedBytes != before.KVReservedBytes || after.KVUsedBytes != before.KVUsedBytes || after.LiveBytes != before.LiveBytes {
				t.Errorf("%s: %s: refused import left reserved/used/live %d/%d/%d, before %d/%d/%d", kind.name, tc.name,
					after.KVReservedBytes, after.KVUsedBytes, after.LiveBytes, before.KVReservedBytes, before.KVUsedBytes, before.LiveBytes)
			}
			if st := dst.BlockPool().Stats(); st.FreeBlocks != st.CapBlocks {
				t.Errorf("%s: %s: refused import holds %d pool blocks", kind.name, tc.name, st.CapBlocks-st.FreeBlocks)
			}
		}
		// The unmutated snapshot still imports and decodes.
		snap, err := sess.Export()
		if err != nil {
			t.Fatal(err)
		}
		ok, err := dst.ImportSession(snap)
		if err != nil {
			t.Fatalf("%s: valid snapshot refused: %v", kind.name, err)
		}
		stepAll(t, dst, []*GenSession{ok})
		ok.Close()
		neighbour.Close()
		sess.Close()
	}
}

// chop returns the one-span view v with n storage words cut off its end.
func chop(v kernels.KVSpans, n int) kernels.KVSpans {
	if v.Half() {
		return kernels.KVSpans{F16: [][]uint16{v.F16[0][:len(v.F16[0])-n]}, Rows: v.Rows}
	}
	return kernels.KVSpans{F32: [][]float32{v.F32[0][:len(v.F32[0])-n]}, Rows: v.Rows}
}

// recode returns a one-span view of n zero words in the OTHER storage format.
func recode(v kernels.KVSpans, n int) kernels.KVSpans {
	if v.Half() {
		return kernels.KVSpans{F32: [][]float32{make([]float32, n)}, Rows: v.Rows}
	}
	return kernels.KVSpans{F16: [][]uint16{make([]uint16, n)}, Rows: v.Rows}
}
