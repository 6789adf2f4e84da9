//go:build !amd64 || purego

package tensor

// The two lane conversions in Go: the build for every target without
// assembly (and for -tags purego), and the definition lanes_amd64.s is held
// to.

func roundF16Lanes(dst, src []float32) { roundF16Go(dst, src) }

func encodeF16Lanes(dst []uint16, src []float32) { encodeF16Go(dst, src) }
