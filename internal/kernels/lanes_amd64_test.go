//go:build !purego

package kernels

import (
	"math"
	"testing"

	"repro/internal/cpufeat"
)

// geluBodies lists the bias + GELU bodies this CPU runs, the probe's pick
// first.
func geluBodies() []geluBody {
	sse2 := geluBody{"sse2", func() { geluAVX512 = false }}
	if !cpufeat.AVX512() {
		return []geluBody{sse2}
	}
	return []geluBody{{"avx512", func() { geluAVX512 = true }}, sse2}
}

// startGeluAVX512 is geluAVX512 as the package initialised it: the tests that
// switch bodies restore the probe's pick, not the initial value, so the
// probe test reads this one.
var startGeluAVX512 = geluAVX512

// TestGeluProbeMatchesCPUInfo: bias + GELU runs the AVX-512 body exactly when
// the kernel reports avx512f. A probe that wrongly said no would cost the
// sixteen-lane speed-up with every other test still green.
func TestGeluProbeMatchesCPUInfo(t *testing.T) {
	listed, err := cpufeat.CPUInfoListed("avx512f")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	if probed := cpufeat.AVX512(); probed != listed || startGeluAVX512 != probed {
		t.Fatalf("/proc/cpuinfo lists avx512f: %v; probe found AVX-512: %v; bias + GELU runs AVX-512: %v", listed, probed, startGeluAVX512)
	}
}

// TestGeluWideLanesMatchFourLanes sweeps the float32 bit patterns with a
// stride (every sign, exponent and a spread of mantissas, NaNs and infinities
// included) through the sixteen-lane body and the four-lane one, and wants
// the same bits, NaN payloads too. The bias is −0, so each pattern reaches
// the chain as it is.
func TestGeluWideLanesMatchFourLanes(t *testing.T) {
	if !cpufeat.AVX512() {
		t.Skip("no AVX-512 body on this CPU")
	}
	const chunk, stride = 1 << 16, 151
	wide, four := make([]float32, chunk), make([]float32, chunk)
	bias := make([]float32, chunk)
	for j := range bias {
		bias[j] = float32(math.Copysign(0, -1))
	}
	for start := uint64(0); start < 1<<32; start += chunk * stride {
		for j := range wide {
			wide[j] = math.Float32frombits(uint32(start + uint64(j)*stride))
		}
		copy(four, wide)
		addBiasGeluAVX512(wide, bias)
		addBiasGeluSSE2(four, bias)
		for j := range wide {
			if math.Float32bits(wide[j]) != math.Float32bits(four[j]) {
				x := uint32(start + uint64(j)*stride)
				t.Fatalf("gelu(%#08x): sixteen lanes %#08x, four lanes %#08x", x, math.Float32bits(wide[j]), math.Float32bits(four[j]))
			}
		}
	}
}
