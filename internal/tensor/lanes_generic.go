//go:build !amd64 || purego

package tensor

// Without the assembly (every target but amd64, and -tags purego) the Go
// twins convert every element, decode through its table.

func decodeF16Lanes(dst []float32, src []uint16) int { return decodeF16Table(dst, src) }

func encodeF16Lanes(dst []uint16, src []float32) int { return 0 }

func roundF16Lanes(dst, src []float32) int { return 0 }
