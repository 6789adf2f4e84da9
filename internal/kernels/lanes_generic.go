//go:build !amd64 || purego

package kernels

import "math"

// The two lane kernels in Go: the build for every target without assembly
// (and for -tags purego), and the definition lanes_amd64.s is held to.

// addBiasGeluLanes is x[j] = gelu(x[j] + bias[j]); len(x) is a multiple of 4.
func addBiasGeluLanes(x, bias []float32) {
	for j := range x {
		x[j] = gelu(x[j] + bias[j])
	}
}

// softmaxRow is the one softmax every path shares — padded, packed, decode
// grouped and per-row, fp32 and fp16 — and its order is fixed (DESIGN.md §2):
// the row's max (a NaN is never larger), e_j = expf(x_j − max), four float32
// partial sums over j mod 4 folded ((s0+s1)+s2)+s3, one reciprocal, e_j·inv.
// The row counts as extended with −Inf to a multiple of four; a −Inf's e_j is
// exactly +0, so a row padded with −Inf adds the same numbers in the same
// order as its packed twin. An empty row and a row of nothing but −Inf (fully
// masked) come back all zeros.
func softmaxRow(row []float32) {
	maxv := float32(math.Inf(-1))
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	if math.IsInf(float64(maxv), -1) {
		clear(row)
		return
	}
	var s [4]float32
	for j, v := range row {
		e := expf(v - maxv)
		row[j] = e
		s[j&3] += e
	}
	inv := 1 / (s[0] + s[1] + s[2] + s[3])
	for j := range row {
		row[j] *= inv
	}
}
