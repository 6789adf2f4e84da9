//go:build amd64 && !purego

package tensor

// The two lane conversions in SSE2 assembly (lanes_amd64.s): roundF16Go and
// encodeF16Go on four elements at a time. len(src) is a multiple of 4 and dst
// is as long; dst may be src for the rounding. They check no bounds.

//go:noescape
func roundF16Lanes(dst, src []float32)

//go:noescape
func encodeF16Lanes(dst []uint16, src []float32)
