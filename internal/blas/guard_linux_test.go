package blas

import (
	"math"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns a copy of the non-empty src whose last element is the last four bytes
// before an inaccessible page, so that touching src[len(src)] faults. With
// readOnly the copy itself cannot be written either.
func guarded(t *testing.T, src []float32, readOnly bool) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	pages := (4*len(src)+page-1)/page + 1
	mem, err := syscall.Mmap(-1, 0, pages*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	data, guard := mem[:(pages-1)*page], mem[(pages-1)*page:]
	if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	s := unsafe.Slice((*float32)(unsafe.Pointer(&data[len(data)-4*len(src)])), len(src))
	copy(s, src)
	if readOnly {
		if err := syscall.Mprotect(data, syscall.PROT_READ); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	return s
}

// TestGemmStaysInsideItsOperands runs NN and NT with A, B and C each ending on
// a page boundary, A and B read-only: a load or store one element past any
// operand, or a store into A or B, faults instead of going unnoticed.
func TestGemmStaysInsideItsOperands(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(17))
	for _, transB := range []bool{false, true} {
		for m := 1; m <= 3; m++ {
			for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 17} {
				for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
					ldb := n
					if transB {
						ldb = k
					}
					a := guarded(t, randSlice(rng, m*k), true)
					b := guarded(t, randSlice(rng, k*n), true)
					c0 := randSlice(rng, m*n)
					c := guarded(t, c0, false)
					want := append([]float32(nil), c0...)
					Gemm(false, transB, m, n, k, 0.125, a, k, b, ldb, 1, c, n)
					gemmOrdered(transB, m, n, k, 0.125, a, k, b, ldb, 1, want, n)
					for i := range c {
						if math.Float32bits(c[i]) != math.Float32bits(want[i]) {
							t.Fatalf("transB=%v m=%d n=%d k=%d: c[%d] = %g, ordered reference %g", transB, m, n, k, i, c[i], want[i])
						}
					}
				}
			}
		}
	}
}
