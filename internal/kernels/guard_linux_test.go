package kernels

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/guardpage"
)

// TestLanesStayInsideTheirOperands runs the softmax and the bias + GELU with
// each row ending on a page boundary, the bias read-only: a load or store one
// element past an operand, or a store into the bias, faults instead of going
// unnoticed — at every tail length, and for GELU past the end of a
// sixteen-lane loop and of the four-lane steps after it, on each GELU body.
func TestLanesStayInsideTheirOperands(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(48))
	for n := 1; n <= 19; n++ {
		src := randSlice(rng, n)
		want := append([]float32(nil), src...)
		refSoftmaxRow(want)
		row := guardpage.Copy(t, src, false)
		softmaxRow(row)
		for j := range want {
			if !sameBits(row[j], want[j]) {
				t.Fatalf("softmax n=%d [%d]: %g, reference %g", n, j, row[j], want[j])
			}
		}
	}
	eachGeluBody(t, func(t *testing.T) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true)) // per goroutine: each subtest has its own
		for n := 1; n <= 37; n++ {
			src, bias := randSlice(rng, n), randSlice(rng, n)
			row := guardpage.Copy(t, src, false)
			AddBiasAct(ActGELU, row, guardpage.Copy(t, bias, true), 1, n)
			for j := range row {
				if want := refGelu(src[j] + bias[j]); !sameBits(row[j], want) {
					t.Fatalf("gelu n=%d [%d]: %g, reference %g", n, j, row[j], want)
				}
			}
		}
	})
}
