// Fixture: a main package, where the served code starts.
package main

import (
	"fmt"

	"repro/internal/analysis/testdata/src/testonly/lib"
)

func main() {
	var r lib.Runner = lib.Impl{}
	fmt.Println(lib.Served()+r.Run(), lib.Label("x"))
}
