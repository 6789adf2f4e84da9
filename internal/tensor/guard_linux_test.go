package tensor

import (
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardedBytes returns n bytes whose last one is the last byte before an
// inaccessible page, so that touching one byte past them faults. (The twin of
// the helper in blas and kernels: the lane conversions check no bounds
// either.)
func guardedBytes(t *testing.T, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	pages := (n+page-1)/page + 1
	mem, err := syscall.Mmap(-1, 0, pages*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	data, guard := mem[:(pages-1)*page], mem[(pages-1)*page:]
	if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return data[len(data)-n:]
}

func guardedF32(t *testing.T, n int) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(guardedBytes(t, 4*n)))), n)
}

func guardedU16(t *testing.T, n int) []uint16 {
	return unsafe.Slice((*uint16)(unsafe.Pointer(unsafe.SliceData(guardedBytes(t, 2*n)))), n)
}

// TestF16LanesStayInsideTheirOperands runs both lane conversions with source
// and destination each ending on a page boundary: a load or store one element
// past either faults instead of going unnoticed — at every tail length.
func TestF16LanesStayInsideTheirOperands(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	vals := activationMix()
	for n := 1; n <= 19; n++ {
		src := guardedF32(t, n)
		copy(src, vals[n:])
		dst, enc := guardedF32(t, n), guardedU16(t, n)
		RoundF16Into(dst, src)
		EncodeF16Slice(enc, src)
		for i, v := range src {
			if h := F32ToF16Bits(v); enc[i] != h || dst[i] != F16BitsToF32(h) {
				t.Fatalf("n=%d [%d]: %g rounds to %g, encodes to %#04x; codec %g, %#04x", n, i, v, dst[i], enc[i], F16BitsToF32(h), h)
			}
		}
	}
}
