//go:build amd64 && !purego

package kernels

// The two lane kernels in SSE2 assembly (lanes_amd64.s): expf.go's chain on
// four elements at a time. lanes_generic.go says what each computes. They
// check no bounds.

// len(x) is a multiple of 4 and bias is at least as long.
//
//go:noescape
func addBiasGeluLanes(x, bias []float32)

//go:noescape
func softmaxRow(row []float32)
