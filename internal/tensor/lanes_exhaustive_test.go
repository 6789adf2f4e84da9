//go:build exhaustive

package tensor

import (
	"math"
	"testing"
)

// TestF16LanesExhaustive holds RoundF16Into and EncodeF16Slice to the scalar
// codec on all 2³² float32, a block at a time, on each conversion body (the
// decode's 65 536 inputs are TestF16DecodeAllHalves'); a minute or two of
// one core per body, hence the build tag (go test -tags exhaustive -run
// F16LanesExhaustive ./internal/tensor).
func TestF16LanesExhaustive(t *testing.T) {
	const block = 1 << 16
	src, dst, enc := make([]float32, block), make([]float32, block), make([]uint16, block)
	eachF16Body(t, func(t *testing.T) {
		for base := uint64(0); base < 1<<32; base += block {
			for i := range src {
				src[i] = math.Float32frombits(uint32(base) + uint32(i))
			}
			RoundF16Into(dst, src)
			EncodeF16Slice(enc, src)
			for i, v := range src {
				h := F32ToF16Bits(v)
				if enc[i] != h || math.Float32bits(dst[i]) != math.Float32bits(F16BitsToF32(h)) {
					t.Fatalf("%#08x: rounds to %#08x, encodes to %#04x; codec %#08x, %#04x",
						math.Float32bits(v), math.Float32bits(dst[i]), enc[i], math.Float32bits(F16BitsToF32(h)), h)
				}
			}
		}
	})
}
