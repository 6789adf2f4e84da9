package tensor

import (
	"runtime/debug"
	"testing"

	"repro/internal/guardpage"
)

// TestF16LanesStayInsideTheirOperands runs the three slice conversions with
// source and destination each ending on a page boundary: a load or store one
// element past either faults instead of going unnoticed — at every length
// through three sixteen-lane steps, on each body.
func TestF16LanesStayInsideTheirOperands(t *testing.T) {
	vals := activationMix()
	eachF16Body(t, func(t *testing.T) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true)) // per goroutine: each subtest has its own
		for n := 1; n <= 49; n++ {
			src := guardpage.Slice[float32](t, n)
			copy(src, vals[n:])
			dst, enc, dec := guardpage.Slice[float32](t, n), guardpage.Slice[uint16](t, n), guardpage.Slice[float32](t, n)
			RoundF16Into(dst, src)
			EncodeF16Slice(enc, src)
			DecodeF16Slice(dec, enc)
			for i, v := range src {
				if h := F32ToF16Bits(v); enc[i] != h || dst[i] != F16BitsToF32(h) || dec[i] != dst[i] {
					t.Fatalf("n=%d [%d]: %g rounds to %g, encodes to %#04x, decodes to %g; codec %g, %#04x", n, i, v, dst[i], enc[i], dec[i], F16BitsToF32(h), h)
				}
			}
		}
	})
}
