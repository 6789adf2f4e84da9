// Package testutil holds the test helpers that more than one package's
// tests share. Only _test.go files import it, so no served binary links it,
// and it imports nothing from this module, so any package's in-package
// tests can use it without an import cycle.
package testutil

import (
	"math"
	"os"
	"slices"
	"strings"
)

// AllClose reports whether got and want have the same length and every
// element of got is within atol+rtol*|want| of the matching element of
// want. A NaN on either side is never close.
func AllClose(got, want []float32, rtol, atol float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		a, b := float64(got[i]), float64(want[i])
		if math.IsNaN(a) || math.IsNaN(b) {
			return false
		}
		if math.Abs(a-b) > atol+rtol*math.Abs(b) {
			return false
		}
	}
	return true
}

// CPUInfoListed reports whether the first "flags" line of /proc/cpuinfo
// lists flag (e.g. "avx2", "avx512f") — what the kernel says the CPU has,
// against which tests check the cpufeat probe.
func CPUInfoListed(flag string) (bool, error) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false, err
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			return slices.Contains(strings.Fields(flags), flag), nil
		}
	}
	return false, nil
}
