// Package guardpage gives tests slices that end exactly where an inaccessible
// page begins, so that an assembly kernel (which checks no bounds) reading or
// writing one element past its operand faults instead of going unnoticed.
// Turn the fault into a test failure with debug.SetPanicOnFault(true).
//
// blas, kernels and tensor use it in their guard_linux_test.go files; the
// helpers need mmap and mprotect and exist on linux only.
package guardpage
