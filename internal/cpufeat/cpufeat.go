// Package cpufeat is the one CPU feature probe: blas, kernels and tensor read
// it to pick the widest assembly body of a kernel the CPU can run. The probe
// exists where the assembly does, on amd64 without -tags purego.
//
// The three packages keep one convention for a kernel with assembly bodies
// and a Go twin:
//
//   - the probe picks the widest body the CPU has, once, at start-up, into a
//     package variable (the pick variable);
//   - there is no option, flag or environment variable that picks one;
//   - only tests change the pick variable, to run every body this CPU has;
//   - the Go twin is the definition every body is held to, bit for bit, and
//     it is what runs under -tags purego and on every architecture but amd64.
//
// So the pick moves no bits, only time.
package cpufeat
