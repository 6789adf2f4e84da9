//go:build !purego

package tensor

import "repro/internal/cpufeat"

// The three slice conversions on amd64 run on the CPU's converter
// (lanes_amd64.s), picked as internal/cpufeat's package doc says: sixteen
// lanes with AVX-512F and F16C, eight with F16C, none otherwise — then the
// Go twins take every element (decode through its table). Each lanes
// function converts the longest prefix of whole groups of eight and returns
// its length; the caller's Go twin takes the rest.

// f16cLanes, the pick, is 16, 8 or 0.
var f16cLanes = widestF16CLanes()

func widestF16CLanes() int {
	switch {
	case cpufeat.AVX512() && cpufeat.F16C():
		return 16
	case cpufeat.F16C():
		return 8
	}
	return 0
}

func decodeF16Lanes(dst []float32, src []uint16) int {
	if f16cLanes == 0 {
		return decodeF16Table(dst, src)
	}
	n := len(src) &^ 7
	decodeF16C(dst[:n], src[:n], f16cLanes == 16)
	return n
}

func encodeF16Lanes(dst []uint16, src []float32) int {
	if f16cLanes == 0 {
		return 0
	}
	n := len(src) &^ 7
	encodeF16C(dst[:n], src[:n], f16cLanes == 16)
	return n
}

func roundF16Lanes(dst, src []float32) int {
	if f16cLanes == 0 {
		return 0
	}
	n := len(src) &^ 7
	roundF16C(dst[:n], src[:n], f16cLanes == 16)
	return n
}

//go:noescape
func decodeF16C(dst []float32, src []uint16, wide bool)

//go:noescape
func encodeF16C(dst []uint16, src []float32, wide bool)

//go:noescape
func roundF16C(dst, src []float32, wide bool)
