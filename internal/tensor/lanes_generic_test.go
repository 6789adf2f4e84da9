//go:build !amd64 || purego

package tensor

// f16Bodies: this build has one conversion body, the Go twins.
func f16Bodies() []f16Body {
	return []f16Body{{"go", func() {}}}
}
