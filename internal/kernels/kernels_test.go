package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

func maxDiff(a, b []float32) float64 {
	var d float64
	for i := range a {
		x := math.Abs(float64(a[i]) - float64(b[i]))
		if x > d {
			d = x
		}
	}
	return d
}

func TestAddBias(t *testing.T) {
	x := []float32{1, 2, 3, 4, 5, 6}
	AddBias(x, []float32{10, 20, 30}, 2, 3)
	want := []float32{11, 22, 33, 14, 25, 36}
	if maxDiff(x, want) != 0 {
		t.Fatalf("got %v want %v", x, want)
	}
}

func TestActivations(t *testing.T) {
	// GELU reference values from the tanh approximation.
	x := []float32{0}
	Act(ActGELU, x)
	if x[0] != 0 {
		t.Fatalf("gelu(0)=%v, want 0", x[0])
	}
	x = []float32{100}
	Act(ActGELU, x)
	if math.Abs(float64(x[0])-100) > 1e-3 {
		t.Fatalf("gelu(100)=%v, want ~100", x[0])
	}
	x = []float32{-100}
	Act(ActGELU, x)
	if math.Abs(float64(x[0])) > 1e-3 {
		t.Fatalf("gelu(-100)=%v, want ~0", x[0])
	}

	x = []float32{-2, 3}
	Act(ActReLU, x)
	if x[0] != 0 || x[1] != 3 {
		t.Fatalf("relu: %v", x)
	}

	x = []float32{0.5}
	Act(ActTanh, x)
	if math.Abs(float64(x[0])-math.Tanh(0.5)) > 1e-6 {
		t.Fatalf("tanh: %v", x)
	}
}

func TestActivationString(t *testing.T) {
	if ActGELU.String() != "gelu" || ActReLU.String() != "relu" || ActTanh.String() != "tanh" {
		t.Fatal("activation names wrong")
	}
	if Activation(99).String() != "unknown" {
		t.Fatal("unknown activation name wrong")
	}
}

// TestAddBiasActEqualsComposition holds the fused kernel to AddBias then Act,
// bit for bit, on every activation — ReLU's comparison included: −0 and a NaN
// pass through, −Inf and the smallest negative
// become +0.
func TestAddBiasActEqualsComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const rows, n = 9, 17
	x := randSlice(rng, rows*n)
	bias := randSlice(rng, n)
	negZero := float32(math.Copysign(0, -1))
	bias[0], bias[1], bias[2], bias[3], bias[4] = 0, negZero, 0, 0, 0
	x[0], x[1], x[2], x[3], x[4] = negZero, negZero, float32(math.NaN()), float32(math.Inf(-1)), -math.SmallestNonzeroFloat32
	for _, act := range []Activation{ActGELU, ActReLU, ActTanh} {
		fused := append([]float32(nil), x...)
		unfused := append([]float32(nil), x...)
		AddBiasAct(act, fused, bias, rows, n)
		AddBias(unfused, bias, rows, n)
		Act(act, unfused)
		for i := range fused {
			if !sameBits(fused[i], unfused[i]) {
				t.Fatalf("%v [%d]: fused %g (%#08x), composition %g (%#08x)", act, i,
					fused[i], math.Float32bits(fused[i]), unfused[i], math.Float32bits(unfused[i]))
			}
		}
	}
	relu := append([]float32(nil), x[:5]...)
	AddBiasAct(ActReLU, relu, bias[:5], 1, 5)
	for i, want := range []uint32{0, 0x80000000, 0, 0, 0} { // −0 + 0 is +0; −0 + −0 stays −0
		if got := math.Float32bits(relu[i]); got != want && i != 2 {
			t.Fatalf("relu [%d] = %#08x, want %#08x", i, got, want)
		}
	}
	if !math.IsNaN(float64(relu[2])) {
		t.Fatalf("relu(NaN) = %g", relu[2])
	}
}

func TestAddResidual(t *testing.T) {
	x := []float32{1, 2}
	AddResidual(x, []float32{10, 20})
	if x[0] != 11 || x[1] != 22 {
		t.Fatalf("%v", x)
	}
}

func TestSoftmaxStableOnLargeValues(t *testing.T) {
	x := []float32{1e4, 1e4 + 1, 1e4 - 1}
	Softmax(x, 1, 3)
	for _, v := range x {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("unstable softmax: %v", x)
		}
	}
}

// Property: softmax is invariant under per-row constant shifts.
func TestQuickSoftmaxShiftInvariance(t *testing.T) {
	f := func(seed int64, shift float32) bool {
		if shift != shift || shift > 1e4 || shift < -1e4 {
			shift = 1
		}
		rng := rand.New(rand.NewSource(seed))
		const cols = 16
		a := randSlice(rng, cols)
		b := make([]float32, cols)
		for i := range a {
			b[i] = a[i] + shift
		}
		Softmax(a, 1, cols)
		Softmax(b, 1, cols)
		return maxDiff(a, b) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskedScaledSoftmaxMasksPadding(t *testing.T) {
	const batch, heads, seqQ, seqK = 2, 2, 3, 4
	x := make([]float32, batch*heads*seqQ*seqK)
	for i := range x {
		x[i] = 1
	}
	seqLens := []int{2, 4} // request 0 padded beyond position 2
	MaskedScaledSoftmax(x, batch, heads, seqQ, seqK, 1, seqLens)
	// Request 0: columns 2,3 must be exactly zero, columns 0,1 = 0.5.
	for h := 0; h < heads; h++ {
		for q := 0; q < seqQ; q++ {
			row := x[((0*heads+h)*seqQ+q)*seqK:]
			if row[2] != 0 || row[3] != 0 {
				t.Fatalf("masked positions nonzero: %v", row[:seqK])
			}
			if math.Abs(float64(row[0])-0.5) > 1e-6 {
				t.Fatalf("unmasked positions wrong: %v", row[:seqK])
			}
		}
	}
	// Request 1: uniform 0.25.
	row := x[((1*heads+0)*seqQ+0)*seqK:]
	if math.Abs(float64(row[0])-0.25) > 1e-6 {
		t.Fatalf("full-length row wrong: %v", row[:seqK])
	}
}

func TestMaskedScaledSoftmaxScale(t *testing.T) {
	x := []float32{2, 4}
	MaskedScaledSoftmax(x, 1, 1, 1, 2, 0.5, nil)
	want := []float32{1, 2}
	softmaxRow(want)
	if maxDiff(x, want) > 1e-6 {
		t.Fatalf("scale not applied: %v vs %v", x, want)
	}
}

func TestMaskedScaledSoftmaxFullyMaskedRow(t *testing.T) {
	x := []float32{5, 5}
	MaskedScaledSoftmax(x, 1, 1, 1, 2, 1, []int{0})
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("fully masked row should be zeros, got %v", x)
	}
}

func TestMaskedScaledSoftmaxSeqLenClamped(t *testing.T) {
	x := []float32{1, 1}
	MaskedScaledSoftmax(x, 1, 1, 1, 2, 1, []int{99})
	var sum float64
	for _, v := range x {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("clamped seqLen broke softmax: %v", x)
	}
}

// layerNormTwoPass is the textbook two-reduction reference
// (the first formula of Eq. 1).
func layerNormTwoPass(row []float32, gamma, beta []float32, eps float32) {
	var sum float64
	for _, v := range row {
		sum += float64(v)
	}
	mean := sum / float64(len(row))
	var varsum float64
	for _, v := range row {
		d := float64(v) - mean
		varsum += d * d
	}
	variance := varsum / float64(len(row))
	inv := 1 / math.Sqrt(variance+float64(eps))
	for i, v := range row {
		row[i] = float32((float64(v)-mean)*inv)*gamma[i] + beta[i]
	}
}

func TestLayerNormMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const rows, n = 7, 64
	x := randSlice(rng, rows*n)
	gamma := randSlice(rng, n)
	beta := randSlice(rng, n)
	got := append([]float32(nil), x...)
	LayerNorm(got, gamma, beta, rows, n, 1e-5)
	want := append([]float32(nil), x...)
	for r := 0; r < rows; r++ {
		layerNormTwoPass(want[r*n:(r+1)*n], gamma, beta, 1e-5)
	}
	if d := maxDiff(got, want); d > 1e-4 {
		t.Fatalf("single-pass vs two-pass diff %g", d)
	}
}

func TestLayerNormMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 128
	x := randSlice(rng, n)
	for i := range x {
		x[i] = x[i]*3 + 7 // arbitrary affine distortion
	}
	gamma := make([]float32, n)
	beta := make([]float32, n)
	for i := range gamma {
		gamma[i] = 1
	}
	LayerNorm(x, gamma, beta, 1, n, 1e-6)
	var sum, sumSq float64
	for _, v := range x {
		sum += float64(v)
		sumSq += float64(v) * float64(v)
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 1e-4 {
		t.Fatalf("mean=%v, want ~0", mean)
	}
	if math.Abs(variance-1) > 1e-3 {
		t.Fatalf("var=%v, want ~1", variance)
	}
}

func TestLayerNormConstantRow(t *testing.T) {
	// Variance 0 must not produce NaN thanks to eps.
	x := []float32{5, 5, 5, 5}
	gamma := []float32{1, 1, 1, 1}
	beta := []float32{0, 0, 0, 0}
	LayerNorm(x, gamma, beta, 1, 4, 1e-5)
	for _, v := range x {
		if math.IsNaN(float64(v)) {
			t.Fatalf("NaN on constant row: %v", x)
		}
	}
}

func TestAddBiasLayerNormEqualsComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const rows, n = 6, 48
	x := randSlice(rng, rows*n)
	res := randSlice(rng, rows*n)
	bias := randSlice(rng, n)
	gamma := randSlice(rng, n)
	beta := randSlice(rng, n)

	fused := append([]float32(nil), x...)
	AddBiasLayerNorm(fused, res, bias, gamma, beta, rows, n, 1e-5)

	unfused := append([]float32(nil), x...)
	AddResidual(unfused, res)
	AddBias(unfused, bias, rows, n)
	LayerNorm(unfused, gamma, beta, rows, n, 1e-5)

	if d := maxDiff(fused, unfused); d > 1e-4 {
		t.Fatalf("fused != composition: %g", d)
	}
}

func TestSplitAddBiasTransposeForScore(t *testing.T) {
	const batch, seq, heads, headDim = 2, 3, 2, 4
	hidden := heads * headDim
	rng := rand.New(rand.NewSource(6))
	qkv := randSlice(rng, batch*seq*3*hidden)
	bias := randSlice(rng, 3*hidden)
	q := make([]float32, batch*seq*hidden)
	k := make([]float32, batch*seq*hidden)
	v := make([]float32, batch*seq*hidden)
	SplitAddBiasTransposeForScore(qkv, bias, batch, seq, heads, headDim, q, k, v)

	// Manual check of a handful of positions.
	for b := 0; b < batch; b++ {
		for s := 0; s < seq; s++ {
			for h := 0; h < heads; h++ {
				for d := 0; d < headDim; d++ {
					for which, dst := range [][]float32{q, k, v} {
						src := qkv[((b*seq+s)*3+which)*hidden+h*headDim+d]
						bi := bias[which*hidden+h*headDim+d]
						got := dst[((b*heads+h)*seq+s)*headDim+d]
						if math.Abs(float64(got-(src+bi))) > 1e-6 {
							t.Fatalf("mismatch at b=%d s=%d h=%d d=%d part=%d", b, s, h, d, which)
						}
					}
				}
			}
		}
	}
}

func TestTransposeForScoreRoundTrip(t *testing.T) {
	const batch, seq, heads, headDim = 2, 5, 3, 4
	hidden := heads * headDim
	rng := rand.New(rand.NewSource(7))
	x := randSlice(rng, batch*seq*hidden)
	zero := make([]float32, hidden)
	perHead := make([]float32, batch*seq*hidden)
	AddBiasTransposeForScore(x, zero, batch, seq, heads, headDim, perHead)
	back := make([]float32, batch*seq*hidden)
	TransposeForScore(perHead, batch, heads, seq, headDim, back)
	if d := maxDiff(x, back); d != 0 {
		t.Fatalf("round trip diff %g", d)
	}
}

func TestCheckLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short slice")
		}
	}()
	AddBias(make([]float32, 3), make([]float32, 2), 2, 2)
}

// Property: MaskedScaledSoftmax with full lengths equals plain scaled softmax.
func TestQuickMaskedEqualsUnmaskedAtFullLength(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const batch, heads, s = 2, 2, 6
		a := randSlice(rng, batch*heads*s*s)
		b := append([]float32(nil), a...)
		MaskedScaledSoftmax(a, batch, heads, s, s, 0.3, []int{s, s})
		for i := range b {
			b[i] *= 0.3
		}
		Softmax(b, batch*heads*s, s)
		return maxDiff(a, b) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSoftmax20x500(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const rows, cols = 20 * 12 * 500, 500
	_ = rows
	x := randSlice(rng, 2400*cols) // 20 batch × 12 heads × 10 rows sample
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := append([]float32(nil), x...)
		Softmax(y, 2400, cols)
	}
}

func BenchmarkLayerNormRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const rows, n = 2560, 768
	x := randSlice(rng, rows*n)
	gamma := randSlice(rng, n)
	beta := randSlice(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := append([]float32(nil), x...)
		LayerNorm(y, gamma, beta, rows, n, 1e-5)
	}
}
