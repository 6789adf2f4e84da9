package tensor

import (
	"math/rand"
	"testing"
)

func TestPackedRoundTrip(t *testing.T) {
	lens := []int{3, 1, 5, 2}
	const cols = 4
	p := NewPacked(lens, cols)
	if p.TotalTokens() != 11 || p.Batch() != 4 || p.MaxLen() != 5 {
		t.Fatalf("bad geometry: %v", p)
	}
	rng := rand.New(rand.NewSource(1))
	for i := range p.Data().Data() {
		p.Data().Data()[i] = rng.Float32()
	}
	padded := p.ToPadded()
	if padded.Dim(0) != 4 || padded.Dim(1) != 5 || padded.Dim(2) != cols {
		t.Fatalf("padded shape %v", padded.Shape())
	}
	// Padding rows must be exactly zero.
	for b, n := range lens {
		for s := n; s < p.MaxLen(); s++ {
			for c := 0; c < cols; c++ {
				if padded.At(b, s, c) != 0 {
					t.Fatalf("padding row (%d,%d) not zero", b, s)
				}
			}
		}
	}
	back := PackPadded(padded, lens)
	if back.Data().MaxAbsDiff(p.Data()) != 0 {
		t.Fatal("pack(unpack(p)) != p")
	}
}

func TestPackedRequestViewsAlias(t *testing.T) {
	p := NewPacked([]int{2, 3}, 2)
	p.Request(1).Data()[0] = 42
	if p.Data().Data()[2*2] != 42 {
		t.Fatal("Request must view the shared storage")
	}
}

func TestPackedPaddingWaste(t *testing.T) {
	p := NewPacked([]int{1, 1, 1, 5}, 2)
	// 8 real tokens of 20 padded slots → 60% waste.
	if p.PaddedTokens() != 20 || p.PaddingWaste() != 0.6 {
		t.Fatalf("padded=%d waste=%g", p.PaddedTokens(), p.PaddingWaste())
	}
}

func TestPackedRejectsEmptyRequests(t *testing.T) {
	for _, lens := range [][]int{nil, {}, {3, 0}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPacked(%v) did not panic", lens)
				}
			}()
			NewPacked(lens, 2)
		}()
	}
}
