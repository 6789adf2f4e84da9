//go:build exhaustive

package kernels

import (
	"math"
	"testing"
)

// TestExpfExhaustive checks every float32 in [expLo, −0] — 1.1·10⁹ of them —
// against the float64 exponential; about a minute of one core, hence the
// build tag (go test -tags exhaustive -run ExpfExhaustive ./internal/kernels).
func TestExpfExhaustive(t *testing.T) {
	var worst float64
	var at float32
	for b := math.Float32bits(float32(math.Copysign(0, -1))); b <= math.Float32bits(expLo); b++ {
		x := math.Float32frombits(b)
		if e := expfULPs(x); e > worst {
			worst, at = e, x
		}
	}
	t.Logf("worst error %.4f ULP at %g", worst, at)
	if worst >= 1 {
		t.Fatalf("expf(%g) is %.4f ULP from the float64 exponential, bound 1", at, worst)
	}
}
