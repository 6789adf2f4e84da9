//go:build !amd64 || purego

package kernels

// geluBodies: this build has one bias + GELU body, the Go chain.
func geluBodies() []geluBody {
	return []geluBody{{"go", func() {}}}
}
