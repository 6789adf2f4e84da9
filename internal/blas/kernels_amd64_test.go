//go:build !purego

package blas

import (
	"testing"

	"repro/internal/cpufeat"
)

// nnBodies lists the NN bodies this CPU runs, the probe's pick first.
func nnBodies() []nnBody {
	var bodies []nnBody
	if cpufeat.AVX512() {
		bodies = append(bodies, nnBody{"avx512", func() { nnLanes = 16 }})
	}
	if cpufeat.AVX2() {
		bodies = append(bodies, nnBody{"avx", func() { nnLanes = 8 }})
	}
	return append(bodies, nnBody{"sse2", func() { nnLanes = 4 }})
}

// startNNLanes is nnLanes as the package initialised it: the tests that
// switch bodies restore the probe's pick, not the initial value, so the
// probe test reads this one.
var startNNLanes = nnLanes

// TestNNProbeMatchesCPUInfo: gemmNN runs the AVX-512 bodies exactly when the
// kernel reports avx512f, and the AVX ones exactly when it reports avx2 but
// not avx512f; GemmHalfB converts in the load exactly when it also reports
// f16c. A probe that wrongly said no would cost the wide bodies'
// speed-up with every other test still green.
func TestNNProbeMatchesCPUInfo(t *testing.T) {
	avx2, err := cpufeat.CPUInfoListed("avx2")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	avx512, err := cpufeat.CPUInfoListed("avx512f")
	if err != nil {
		t.Fatal(err)
	}
	want := 4
	switch {
	case avx512:
		want = 16
	case avx2:
		want = 8
	}
	if startNNLanes != want || cpufeat.AVX2() != avx2 || cpufeat.AVX512() != avx512 {
		t.Fatalf("/proc/cpuinfo lists avx2: %v, avx512f: %v; probe found AVX2: %v, AVX-512: %v; gemmNN runs %d lanes, want %d",
			avx2, avx512, cpufeat.AVX2(), cpufeat.AVX512(), startNNLanes, want)
	}
	f16c, err := cpufeat.CPUInfoListed("f16c")
	if err != nil {
		t.Fatal(err)
	}
	if wantInLoad := f16c && want >= 8; cpufeat.F16C() != f16c || halfInLoad() != wantInLoad {
		t.Fatalf("/proc/cpuinfo lists f16c: %v; probe found F16C: %v; GemmHalfB converts in the load: %v, want %v",
			f16c, cpufeat.F16C(), halfInLoad(), wantInLoad)
	}
}
