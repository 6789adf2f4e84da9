//go:build !purego

package blas

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// nnBodies lists the NN bodies this CPU runs, the probe's pick first.
func nnBodies() []nnBody {
	sse2 := nnBody{"sse2", func() { nnAVX = false }}
	if !haveAVX2() {
		return []nnBody{sse2}
	}
	return []nnBody{{"avx", func() { nnAVX = true }}, sse2}
}

// TestNNProbeMatchesCPUInfo: the probe picks the AVX bodies exactly when the
// kernel reports avx2. A probe that wrongly said no would cost the eight-lane
// speed-up with every other test still green.
func TestNNProbeMatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	listed := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			listed = slices.Contains(strings.Fields(flags), "avx2")
			break
		}
	}
	if probed := haveAVX2(); probed != listed || nnAVX != probed {
		t.Fatalf("/proc/cpuinfo lists avx2: %v; probe found AVX2: %v; gemmNN runs AVX: %v", listed, probed, nnAVX)
	}
}
