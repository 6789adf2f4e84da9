//go:build amd64 && !purego

package kernels

import "repro/internal/cpufeat"

// The lane kernels in assembly (lanes_amd64.s): expf.go's chain on four
// elements at a time in SSE2, which every amd64 CPU runs, and bias + GELU
// also on sixteen in AVX-512, picked as internal/cpufeat's package doc says.
// They check no bounds.

// geluAVX512, the pick, is whether addBiasGeluLanes runs the AVX-512 body
// first.
var geluAVX512 = cpufeat.AVX512()

// addBiasGeluLanes is x[j] = gelu(x[j] + bias[j]); len(x) is a multiple of 4
// and bias is at least as long. Whole groups of sixteen go through the
// AVX-512 body when it runs, the rest through the SSE2 one — the same bits.
func addBiasGeluLanes(x, bias []float32) {
	if geluAVX512 {
		n := len(x) &^ 15
		addBiasGeluAVX512(x[:n], bias)
		x, bias = x[n:], bias[n:]
	}
	addBiasGeluSSE2(x, bias)
}

// len(x) is a multiple of 16 and bias is at least as long.
//
//go:noescape
func addBiasGeluAVX512(x, bias []float32)

// len(x) is a multiple of 4 and bias is at least as long.
//
//go:noescape
func addBiasGeluSSE2(x, bias []float32)

//go:noescape
func softmaxRow(row []float32)
