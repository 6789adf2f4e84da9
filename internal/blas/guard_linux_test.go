package blas

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/guardpage"
	"repro/internal/tensor"
)

// TestGemmStaysInsideItsOperands runs NN, NT and NN with a binary16 B
// (GemmHalfB, converting in the load at these m) with A, B and C each ending
// on a page boundary, A and B read-only: a load or store one element past any
// operand, or a store into A or B, faults instead of going unnoticed. The n
// set puts the end of the sixteen-lane loop, of the eight-lane loop or step,
// of the four-lane step and of the scalar tail on the guard page, on every NN
// body; a VCVTPH2PS that read past B's last half would fault.
func TestGemmStaysInsideItsOperands(t *testing.T) {
	eachNNBody(t, func(t *testing.T) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true)) // per goroutine: each subtest has its own
		rng := rand.New(rand.NewSource(17))
		for _, transB := range []bool{false, true} {
			for m := 1; m <= 3; m++ {
				for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 23, 24, 25, 31, 32, 33, 47, 48, 49} {
					for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
						ldb := n
						if transB {
							ldb = k
						}
						a := guardpage.Copy(t, randSlice(rng, m*k), true)
						b := guardpage.Copy(t, randSlice(rng, k*n), true)
						c0 := randSlice(rng, m*n)
						c := guardpage.Copy(t, c0, false)
						want := append([]float32(nil), c0...)
						Gemm(false, transB, m, n, k, 0.125, a, k, b, ldb, 1, c, n)
						gemmOrdered(transB, m, n, k, 0.125, a, k, b, ldb, 1, want, n)
						for i := range c {
							if math.Float32bits(c[i]) != math.Float32bits(want[i]) {
								t.Fatalf("transB=%v m=%d n=%d k=%d: c[%d] = %g, ordered reference %g", transB, m, n, k, i, c[i], want[i])
							}
						}
						if transB {
							continue
						}
						h := make(Half, k*n)
						tensor.EncodeF16Slice(h, b)
						h = guardpage.Copy(t, h, true)
						bd := make([]float32, k*n)
						tensor.DecodeF16Slice(bd, h)
						c = guardpage.Copy(t, c0, false)
						want = append(want[:0], c0...)
						GemmHalfB(m, n, k, 0.125, a, k, h, n, 1, c, n)
						gemmOrdered(false, m, n, k, 0.125, a, k, bd, n, 1, want, n)
						for i := range c {
							if math.Float32bits(c[i]) != math.Float32bits(want[i]) {
								t.Fatalf("binary16 B m=%d n=%d k=%d: c[%d] = %g, ordered reference %g", m, n, k, i, c[i], want[i])
							}
						}
					}
				}
			}
		}
	})
}
