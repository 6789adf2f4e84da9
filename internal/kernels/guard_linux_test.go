package kernels

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns a copy of the non-empty src whose last element is the last
// four bytes before an inaccessible page, so that touching src[len(src)]
// faults. With readOnly the copy itself cannot be written either. (The twin of
// blas's helper: the lane kernels check no bounds either.)
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

// TestLanesStayInsideTheirOperands runs the softmax and the bias + GELU with
// each row ending on a page boundary, the bias read-only: a load or store one
// element past an operand, or a store into the bias, faults instead of going
// unnoticed — at every tail length.
func TestLanesStayInsideTheirOperands(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(48))
	for n := 1; n <= 19; n++ {
		src, bias := randSlice(rng, n), randSlice(rng, n)

		want := append([]float32(nil), src...)
		refSoftmaxRow(want)
		row := guarded(t, src, false)
		softmaxRow(row)
		for j := range want {
			if !sameBits(row[j], want[j]) {
				t.Fatalf("softmax n=%d [%d]: %g, reference %g", n, j, row[j], want[j])
			}
		}

		row = guarded(t, src, false)
		AddBiasAct(ActGELU, row, guarded(t, bias, true), 1, n)
		for j := range row {
			if want := refGelu(src[j] + bias[j]); !sameBits(row[j], want) {
				t.Fatalf("gelu n=%d [%d]: %g, reference %g", n, j, row[j], want)
			}
		}
	}
}
