package tensor

import (
	"runtime/debug"
	"testing"

	"repro/internal/guardpage"
)

// TestF16LanesStayInsideTheirOperands runs both lane conversions with source
// and destination each ending on a page boundary: a load or store one element
// past either faults instead of going unnoticed — at every tail length.
func TestF16LanesStayInsideTheirOperands(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	vals := activationMix()
	for n := 1; n <= 19; n++ {
		src := guardpage.Slice[float32](t, n)
		copy(src, vals[n:])
		dst, enc := guardpage.Slice[float32](t, n), guardpage.Slice[uint16](t, n)
		RoundF16Into(dst, src)
		EncodeF16Slice(enc, src)
		for i, v := range src {
			if h := F32ToF16Bits(v); enc[i] != h || dst[i] != F16BitsToF32(h) {
				t.Fatalf("n=%d [%d]: %g rounds to %g, encodes to %#04x; codec %g, %#04x", n, i, v, dst[i], enc[i], F16BitsToF32(h), h)
			}
		}
	}
}
