package lib

import (
	"testing"

	"repro/internal/analysis/testdata/src/testonly/support"
)

func TestCallers(t *testing.T) {
	_ = OnlyTests() + Outer() + Lookalike{}.Run(1) + Hook() + support.Unused()
}
