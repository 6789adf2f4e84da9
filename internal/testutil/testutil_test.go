package testutil

import (
	"math"
	"testing"
)

func TestAllCloseNaN(t *testing.T) {
	if AllClose([]float32{float32(math.NaN())}, []float32{0}, 1, 1) {
		t.Fatal("AllClose must reject NaN")
	}
}
