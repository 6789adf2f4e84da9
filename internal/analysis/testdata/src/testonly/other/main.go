// Fixture: a second main package; it does not import fmt, so loading it
// without cmd stays cheap.
package main

import "repro/internal/analysis/testdata/src/testonly/lib"

func main() {
	println(lib.UsedByOther())
}
