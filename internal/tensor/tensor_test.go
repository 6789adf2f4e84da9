package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.NumElements() != 6 {
		t.Fatalf("NumElements = %d, want 6", x.NumElements())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if x.Rank() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("shape = %v, want [2 3]", x.Shape())
	}
}

func TestNewZeroDim(t *testing.T) {
	x := New(0, 5)
	if x.NumElements() != 0 {
		t.Fatalf("NumElements = %d, want 0", x.NumElements())
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSliceNoCopy(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	x := FromSlice(data, 2, 2)
	data[0] = 42
	if x.At(0, 0) != 42 {
		t.Fatal("FromSlice must wrap without copying")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRowMajor(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if x.Data()[5] != 7 {
		t.Fatalf("row-major layout violated: data=%v", x.Data())
	}
	if x.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v, want 7", x.At(1, 2))
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	x.At(0, 3)
}

func TestAtRankMismatchPanics(t *testing.T) {
	x := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on rank mismatch")
		}
	}()
	x.At(1)
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Set(9, 0, 1)
	if x.Data()[1] != 9 {
		t.Fatal("reshape must alias the same data")
	}
	if y.Dim(0) != 3 || y.Dim(1) != 4 {
		t.Fatalf("reshape shape = %v", y.Shape())
	}
}

func TestReshapeVolumeMismatchPanics(t *testing.T) {
	x := New(2, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on volume mismatch")
		}
	}()
	x.Reshape(5, 3)
}

func TestSliceAxis0(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8}, 4, 2)
	s := x.SliceAxis0(1, 3)
	want := []float32{3, 4, 5, 6}
	for i, v := range s.Data() {
		if v != want[i] {
			t.Fatalf("slice data = %v, want %v", s.Data(), want)
		}
	}
	if s.Dim(0) != 2 || s.Dim(1) != 2 {
		t.Fatalf("slice shape = %v", s.Shape())
	}
}

func TestSliceAxis0BoundsPanics(t *testing.T) {
	x := New(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad bounds")
		}
	}()
	x.SliceAxis0(3, 5)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestFillZero(t *testing.T) {
	x := New(3)
	x.Fill(2.5)
	for _, v := range x.Data() {
		if v != 2.5 {
			t.Fatalf("Fill failed: %v", x.Data())
		}
	}
	x.Zero()
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatalf("Zero failed: %v", x.Data())
		}
	}
}

func TestMaxAbsDiffAllClose(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{1, 2.001, 3}, 3)
	d := a.MaxAbsDiff(b)
	if math.Abs(d-0.001) > 1e-6 {
		t.Fatalf("MaxAbsDiff = %v, want ~0.001", d)
	}
	if !testutil.AllClose(a.Data(), b.Data(), 1e-2, 1e-2) {
		t.Fatal("AllClose should accept small diff")
	}
	if testutil.AllClose(a.Data(), b.Data(), 0, 1e-6) {
		t.Fatal("AllClose should reject diff above atol")
	}
}

func TestStringTruncates(t *testing.T) {
	x := New(100).WithName("big")
	s := x.String()
	if len(s) > 200 {
		t.Fatalf("String too long: %q", s)
	}
}

func TestRandNDeterministic(t *testing.T) {
	a := RandN(7, 1, 4, 4)
	b := RandN(7, 1, 4, 4)
	if a.MaxAbsDiff(b) != 0 {
		t.Fatal("RandN must be deterministic for equal seeds")
	}
	c := RandN(8, 1, 4, 4)
	if a.MaxAbsDiff(c) == 0 {
		t.Fatal("different seeds should produce different tensors")
	}
}

func TestRandUniformRange(t *testing.T) {
	x := RandUniform(3, -1, 1, 1000)
	for _, v := range x.Data() {
		if v < -1 || v >= 1 {
			t.Fatalf("uniform value %v outside [-1,1)", v)
		}
	}
}

// Property: Reshape never changes the element sequence.
func TestQuickReshapePreservesData(t *testing.T) {
	f := func(seed int64) bool {
		n := 12
		x := RandN(seed, 1, n)
		y := x.Reshape(3, 4).Reshape(2, 6).Reshape(n)
		return x.MaxAbsDiff(y) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone + mutate never affects the original.
func TestQuickCloneIsolation(t *testing.T) {
	f := func(seed int64, v float32) bool {
		x := RandN(seed, 1, 8)
		orig := append([]float32(nil), x.Data()...)
		c := x.Clone()
		c.Fill(v)
		for i, e := range x.Data() {
			if e != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
