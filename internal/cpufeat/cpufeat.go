// Package cpufeat is the one CPU feature probe: blas, kernels and tensor read
// it to pick the widest assembly body of a kernel the CPU can run. It has no option,
// flag or environment variable. The probe exists where the assembly does, on
// amd64 without -tags purego.
package cpufeat

import (
	"os"
	"slices"
	"strings"
)

// CPUInfoListed reports whether the first "flags" line of /proc/cpuinfo
// lists flag (e.g. "avx2", "avx512f") — what the kernel says the CPU has,
// against which tests check the probe.
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
