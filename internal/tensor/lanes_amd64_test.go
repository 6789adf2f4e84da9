//go:build !purego

package tensor

import (
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/testutil"
)

// f16Bodies lists the conversion bodies this CPU runs, the probe's pick
// first: sixteen lanes, eight lanes (F16C on YMM), and the Go twins.
func f16Bodies() []f16Body {
	var bodies []f16Body
	if cpufeat.AVX512() && cpufeat.F16C() {
		bodies = append(bodies, f16Body{"avx512", func() { f16cLanes = 16 }})
	}
	if cpufeat.F16C() {
		bodies = append(bodies, f16Body{"avx", func() { f16cLanes = 8 }})
	}
	return append(bodies, f16Body{"go", func() { f16cLanes = 0 }})
}

// startF16CLanes is f16cLanes as the package initialised it: the tests that
// switch bodies restore the probe's pick, not the initial value, so the
// probe test reads this one.
var startF16CLanes = f16cLanes

// TestF16CProbeMatchesCPUInfo: the conversions run on the converter exactly
// when the kernel reports f16c — sixteen lanes when it also reports avx512f.
// A probe that wrongly said no would cost the converter's speed-up with
// every other test still green.
func TestF16CProbeMatchesCPUInfo(t *testing.T) {
	f16c, err := testutil.CPUInfoListed("f16c")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	avx512, err := testutil.CPUInfoListed("avx512f")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	switch {
	case f16c && avx512:
		want = 16
	case f16c:
		want = 8
	}
	if cpufeat.F16C() != f16c || startF16CLanes != want {
		t.Fatalf("/proc/cpuinfo lists f16c: %v, avx512f: %v; probe found F16C: %v; the conversions run %d lanes, want %d",
			f16c, avx512, cpufeat.F16C(), startF16CLanes, want)
	}
}
