package model

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/allocator"
)

// viewUp reports whether the session's cross memory carries its decoded view
// on every span and the device is charged for it.
func viewUp(s *GenSession) bool {
	s.ccr.mu.Lock()
	defer s.ccr.mu.Unlock()
	for l := range s.cc.k {
		if s.cc.k[l].View == nil || s.cc.v[l].View == nil {
			return false
		}
	}
	return s.ccr.view != nil
}

// fp16Generator is a binary16 generator with a four-entry prefix cache, on
// its own device and pool.
func fp16Generator(t *testing.T, cfg Config) (*Generator, *allocator.Device) {
	t.Helper()
	g, dev, _ := newTestGenerator(t, cfg, 4096, 4)
	g.EnableFP16()
	return g, dev
}

// mustDrain checks that everything a generator charged to its device is gone
// once its prefix cache and pool are closed: both KV gauges at zero, and no
// live byte but the decode scratch — so none of a decoded view's either.
func mustDrain(t *testing.T, name string, g *Generator, dev *allocator.Device) {
	t.Helper()
	g.Close()
	snap := dev.Snapshot()
	if snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
		t.Fatalf("%s: KV gauges not drained: reserved=%d used=%d", name, snap.KVReservedBytes, snap.KVUsedBytes)
	}
	if want := g.dec.scr.bytes(); snap.LiveBytes != want {
		t.Fatalf("%s: %d live device bytes, want only the %d-byte decode scratch", name, snap.LiveBytes, want)
	}
}

// TestCrossViewLifetime drives the decoded view of the cross memory through
// every way a session stops running on the fp16 route — close, retire →
// prefix hit, preempt → readmit, export → import — and checks the view is
// there exactly while something runs on the cache, is shared by two sessions
// on one prompt, never travels in a snapshot, and changes nothing: the same
// drive with every view stripped right after it is raised (so the kernel
// decodes at access, as before) gives the same token streams and the same
// migrated bytes, and both devices end with every KV gauge and every scratch
// byte released.
func TestCrossViewLifetime(t *testing.T) {
	cfg := genTestConfig()
	p1, p2 := []int{7, 8, 9}, []int{4, 5}
	m1, m2 := testMemory(71, 9, cfg.Hidden), testMemory(72, 5, cfg.Hidden)

	drive := func(strip bool) (streams map[string][]int, migrated int64) {
		g, dev := fp16Generator(t, cfg)
		g2, dev2 := fp16Generator(t, cfg)
		streams = map[string][]int{}
		running := func(s *GenSession, err error) *GenSession {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			if strip {
				for l := range s.cc.k {
					s.cc.k[l].View, s.cc.v[l].View = nil, nil
				}
				return s
			}
			if !viewUp(s) {
				t.Fatalf("session %d runs without a decoded view", s.ID)
			}
			checkCrossViews(t, []*GenSession{s}, true)
			return s
		}
		step := func(g *Generator, n int, live ...*GenSession) {
			t.Helper()
			for i := 0; i < n; i++ {
				stepAll(t, g, live)
			}
		}

		// Close: a client that vanished mid-run takes the view with it.
		a := running(g.NewSession(1, p1, m1, 6))
		viewBytes := a.ccr.view.Size
		if want := int64(m1.Dim(0)) * int64(cfg.Layers) * 2 * int64(cfg.Hidden) * 4; viewBytes != want {
			t.Fatalf("view charged %d bytes, want srcLen × layers × 2 × hidden × 4 = %d", viewBytes, want)
		}
		step(g, 2, a)
		acr := a.ccr
		a.Close()
		if acr.view != nil || acr.cc.k[0].View != nil || acr.running != 0 {
			t.Fatal("a closed session left its decoded view behind")
		}

		// Retire: the cache entry keeps the binary16 rows, not the view.
		b := running(g.NewSession(2, p1, m1, 4))
		streams["b"] = drain(t, g, b)
		bcr := b.ccr
		g.Retire(b)
		if bcr.view != nil || bcr.cc.v[1].View != nil || bcr.running != 0 || bcr.refs != 1 {
			t.Fatalf("a retired session's entry holds a view (running=%d refs=%d)", bcr.running, bcr.refs)
		}

		// Prefix hit: one decode raises the view again; a second session on
		// the prompt shares it.
		c := running(g.NewSession(3, p1, nil, 12))
		d := running(g.NewSession(4, p1, nil, 12))
		if c.ccr != bcr || d.ccr != bcr || bcr.running != 2 {
			t.Fatalf("prefix hits do not share the cached cross memory (running=%d)", bcr.running)
		}
		if !strip && &c.cc.k[0].View[0][0] != &d.cc.k[0].View[0][0] {
			t.Fatal("two sessions on one prompt hold two decoded views")
		}
		step(g, 2, c, d)

		// Preempt → readmit: the victim closes, its batch-mate keeps the view;
		// the readmitted job recomputes to the same stream.
		d.Close()
		if (!strip && !viewUp(c)) || bcr.running != 1 {
			t.Fatal("preempting one session took the view from its batch-mate")
		}
		streams["c"] = drain(t, g, c)
		d = running(g.NewSession(4, p1, nil, 12))
		streams["d"] = drain(t, g, d)
		g.Retire(c)
		g.Retire(d)
		if bcr.view != nil || bcr.running != 0 {
			t.Fatal("the view outlived the last running session")
		}

		// Export → import: the snapshot carries stored words only; the
		// importer raises its own view and finishes the stream.
		e := running(g.NewSession(5, p2, m2, 10))
		step(g, 3, e)
		used := dev.Snapshot().KVUsedBytes
		snap, err := e.Export()
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		for l := 0; l < cfg.Layers; l++ {
			if snap.CrossK[l].View != nil || snap.CrossV[l].View != nil || snap.SelfK[l].View != nil {
				t.Fatal("a snapshot carries a decoded view")
			}
		}
		if held := dev.Snapshot().KVUsedBytes; snap.Bytes() != used-held {
			t.Fatalf("snapshot prices %d bytes, the exporter's gauges released %d", snap.Bytes(), used-held)
		}
		migrated = snap.Bytes()
		moved := running(g2.ImportSession(snap))
		streams["e"] = drain(t, g2, moved)
		moved.Close()

		mustDrain(t, "exporter", g, dev)
		mustDrain(t, "importer", g2, dev2)
		return streams, migrated
	}

	streams, migrated := drive(false)
	plain, plainMigrated := drive(true)
	if !reflect.DeepEqual(streams, plain) {
		t.Fatalf("streams through the decoded view %v, decoding at access %v", streams, plain)
	}
	if migrated != plainMigrated {
		t.Fatalf("migrated %d bytes with the view, %d without", migrated, plainMigrated)
	}
	if !reflect.DeepEqual(streams["c"], streams["d"]) || len(streams["c"]) <= len(streams["b"]) {
		t.Fatalf("readmitted stream %v, its batch-mate's %v, the retired prefix %v", streams["d"], streams["c"], streams["b"])
	}
}

// TestCrossViewSharedAcrossGoroutines opens, steps and closes sessions on one
// cached prompt from several goroutines at once — sessions may be created and
// closed from any goroutine — so the view is raised, shared and dropped at
// every interleaving the scheduler finds; every stream must be the solo one.
// The race detector sees the rest.
func TestCrossViewSharedAcrossGoroutines(t *testing.T) {
	cfg := genTestConfig()
	prompt, memory := []int{3, 1, 4}, testMemory(73, 7, cfg.Hidden)
	const budget = 10

	ref, _ := fp16Generator(t, cfg)
	solo, err := ref.NewSession(0, prompt, memory, budget)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, ref, solo)
	solo.Close()
	if len(want) < 4 {
		t.Fatalf("the solo stream %v is too short to share a decode", want)
	}

	g, dev := fp16Generator(t, cfg)
	seed, err := g.NewSession(0, prompt, memory, 2)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, g, seed)
	g.Retire(seed)
	g.ScavengePrefix(1 << 20) // hits share the cross memory and decode afresh

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				s, err := g.NewSession(int64(10*w+round), prompt, nil, budget)
				if err != nil {
					t.Error(err)
					return
				}
				for !s.Done() {
					if _, err := g.Step([]*GenSession{s}); err != nil {
						t.Error(err)
						break
					}
				}
				if got := s.Generated(); !reflect.DeepEqual(got, want) {
					t.Errorf("worker %d round %d: stream %v, solo %v", w, round, got, want)
				}
				s.Close()
			}
		}(w)
	}
	wg.Wait()
	mustDrain(t, "shared", g, dev)
}
