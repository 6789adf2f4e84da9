package guardpage

import (
	"syscall"
	"testing"
	"unsafe"
)

// Slice returns n zeroed elements of T whose last one ends where a PROT_NONE
// page begins, so that touching s[n] faults. The mapping is released when the
// test ends; the test is skipped if it cannot be made.
func Slice[T any](t testing.TB, n int) []T {
	t.Helper()
	s, _ := slice[T](t, n)
	return s
}

// Copy returns a Slice holding src. With readOnly the slice's pages are made
// read-only as well, so that a store into it faults too.
func Copy[T any](t testing.TB, src []T, readOnly bool) []T {
	t.Helper()
	s, pages := slice[T](t, len(src))
	copy(s, src)
	if readOnly {
		if err := syscall.Mprotect(pages, syscall.PROT_READ); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	return s
}

// slice maps the pages Slice describes and returns the slice and the
// accessible pages under it.
func slice[T any](t testing.TB, n int) ([]T, []byte) {
	t.Helper()
	size := n * int(unsafe.Sizeof(*new(T)))
	page := syscall.Getpagesize()
	pages := (size+page-1)/page + 1
	mem, err := syscall.Mmap(-1, 0, pages*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	data, guard := mem[:(pages-1)*page], mem[(pages-1)*page:]
	if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(data[len(data)-size:]))), n), data
}
