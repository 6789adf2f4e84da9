//go:build !amd64 || purego

package blas

// nnBodies: this build has one NN body, the Go loops.
func nnBodies() []nnBody {
	return []nnBody{{"go", func() {}}}
}
