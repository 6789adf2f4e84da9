package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The scalar references below spell DESIGN.md §2's kernel order invariant out
// element by element. The kernels — assembly lanes or their Go twins — must
// reproduce them bit for bit at every length, alignment and special value.

var (
	negInf = float32(math.Inf(-1))
	posInf = float32(math.Inf(1))
	nan32  = float32(math.NaN())
)

// sameBits: identical float32 bits, or both NaN (a NaN's sign and payload are
// the hardware's choice and outside the invariant).
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// geluBody is one body of bias + GELU's lanes: use switches addBiasGelu to it.
type geluBody struct {
	name string
	use  func()
}

// eachGeluBody runs f as a subtest once per bias + GELU body this build and
// CPU have (geluBodies), and leaves addBiasGelu on the one the probe picked.
func eachGeluBody(t *testing.T, f func(t *testing.T)) {
	bodies := geluBodies()
	defer bodies[0].use()
	for _, body := range bodies {
		body.use()
		t.Run(body.name, f)
	}
}

// refSoftmaxRow is §2's softmax: max, the row extended with −Inf to a multiple
// of four — literally — e_j = expf(x_j − max), one partial sum per lane,
// ((s0+s1)+s2)+s3, one reciprocal, e_j·inv.
func refSoftmaxRow(row []float32) {
	maxv := negInf
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	if maxv == negInf {
		for j := range row {
			row[j] = 0
		}
		return
	}
	ext := append([]float32(nil), row...)
	for len(ext)%4 != 0 {
		ext = append(ext, negInf)
	}
	var s [4]float32
	for j := 0; j < len(ext); j += 4 {
		for l := 0; l < 4; l++ {
			ext[j+l] = expf(ext[j+l] - maxv)
			s[l] = s[l] + ext[j+l]
		}
	}
	inv := 1 / (((s[0] + s[1]) + s[2]) + s[3])
	for j := range row {
		row[j] = float32(ext[j] * inv)
	}
}

// refGelu is §2's GELU: x / (1 + expf(−2c·(x + 0.044715·x³))), every product
// rounded before the next operation.
func refGelu(x float32) float32 {
	x2 := float32(x * x)
	x3 := float32(x2 * x)
	inner := x + float32(float32(0.044715)*x3)
	t := float32(float32(-2*0.7978845608028654) * inner)
	return x / (1 + expf(t))
}

// refLayerNormRow is Eq. 1 as the paper writes it: one pass for both float64
// moments in ascending order, E[x²] − E[x]², then float32 normalise and affine.
func refLayerNormRow(row, gamma, beta []float32, eps float32) {
	var sum, sumSq float64
	for _, v := range row {
		sum = sum + float64(v)
		sumSq = sumSq + float64(float64(v)*float64(v))
	}
	n := float64(len(row))
	mean := sum / n
	variance := sumSq/n - float64(mean*mean)
	if variance < 0 {
		variance = 0
	}
	inv := float32(1 / math.Sqrt(variance+float64(eps)))
	m := float32(mean)
	for i, v := range row {
		row[i] = float32(float32((v-m)*inv)*gamma[i]) + beta[i]
	}
}

// refLengths are the row lengths every reference test walks: all tails and
// group counts up to 33, and both sides of 256.
func refLengths() []int {
	var out []int
	for n := 0; n <= 33; n++ {
		out = append(out, n)
	}
	return append(out, 255, 256, 257)
}

// offAlloc returns a copy of src that starts off floats into its allocation.
func offAlloc(src []float32, off int) []float32 {
	buf := make([]float32, off+len(src))
	copy(buf[off:], src)
	return buf[off:]
}

// adversarialScores overwrites a few elements with values at expf's edges as
// seen from a row whose max is top.
func adversarialScores(rng *rand.Rand, row []float32, top float32) {
	edges := []float32{
		top, top + expLo, math.Nextafter32(top+expLo, negInf), math.Nextafter32(top+expLo, posInf),
		top - 87.34, top - 88, top - 100, top - 1e30, negInf, 0, float32(math.Copysign(0, -1)),
		1e-42, -1e-42, top - 1e-7, top - 16.7,
	}
	for k := 0; k < len(row)/3+1 && len(row) > 0; k++ {
		row[rng.Intn(len(row))] = edges[rng.Intn(len(edges))]
	}
}

func TestSoftmaxBitIdenticalToOrderedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range refLengths() {
		for trial := 0; trial < 40; trial++ {
			src := randSlice(rng, n)
			for j := range src {
				src[j] *= 6
			}
			switch trial % 4 {
			case 1:
				adversarialScores(rng, src, 0)
			case 2:
				adversarialScores(rng, src, 30)
			case 3:
				if n > 0 && trial%8 == 3 {
					src[rng.Intn(n)] = []float32{nan32, posInf}[rng.Intn(2)]
				}
			}
			want := append([]float32(nil), src...)
			refSoftmaxRow(want)
			got := offAlloc(src, trial%4)
			Softmax(got, 1, n)
			for j := range want {
				if !sameBits(got[j], want[j]) {
					t.Fatalf("n=%d trial %d [%d]: kernel %g (%#08x), ordered reference %g (%#08x); input %g",
						n, trial, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]), src[j])
				}
			}
		}
	}
}

// TestSoftmaxZeroExtension: a row, and the same row padded with −Inf to every
// length up to nine more, give identical bits on the shared prefix and exactly
// +0 on the pad — what makes a masked padded row equal its packed twin.
func TestSoftmaxZeroExtension(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range refLengths()[1:] {
		src := randSlice(rng, n)
		for j := range src {
			src[j] *= 4
		}
		base := append([]float32(nil), src...)
		softmaxRow(base)
		for pad := 1; pad <= 9; pad++ {
			ext := append([]float32(nil), src...)
			for k := 0; k < pad; k++ {
				ext = append(ext, negInf)
			}
			softmaxRow(ext)
			for j := range ext {
				want := float32(0)
				if j < n {
					want = base[j]
				}
				if math.Float32bits(ext[j]) != math.Float32bits(want) {
					t.Fatalf("n=%d pad=%d [%d]: %g (%#08x), unpadded row %g (%#08x)",
						n, pad, j, ext[j], math.Float32bits(ext[j]), want, math.Float32bits(want))
				}
			}
		}
	}
}

// TestGeluBitIdenticalToReference runs on each bias + GELU body.
func TestGeluBitIdenticalToReference(t *testing.T) {
	eachGeluBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		edges := []float32{0, float32(math.Copysign(0, -1)), 1e-42, -1e-42, 1e-20, 3, -3, 8, -8, 10.05, -10.05, -10.1, -10.2,
			12, -12, 40, -40, 1e6, -1e6, 7e12, -7e12, 1e20, -1e20, 3e38, -3e38, posInf, negInf, nan32}
		for _, n := range refLengths() {
			for trial := 0; trial < 12; trial++ {
				src, bias := randSlice(rng, n), randSlice(rng, n)
				for j := range src {
					src[j] *= 3
					if trial%3 == 1 && rng.Intn(3) == 0 {
						src[j], bias[j] = edges[rng.Intn(len(edges))], 0
					}
				}
				want := make([]float32, n)
				for j := range want {
					want[j] = refGelu(src[j] + bias[j])
				}
				fused := offAlloc(src, trial%4)
				AddBiasAct(ActGELU, fused, offAlloc(bias, (trial+1)%4), 1, n)
				unfused := offAlloc(src, (trial+2)%4)
				AddBias(unfused, bias, 1, n)
				Act(ActGELU, unfused)
				for j := range want {
					if !sameBits(fused[j], want[j]) || !sameBits(unfused[j], want[j]) {
						t.Fatalf("n=%d trial %d [%d]: gelu(%g) fused %g (%#08x), unfused %g, reference %g (%#08x)",
							n, trial, j, src[j]+bias[j], fused[j], math.Float32bits(fused[j]), unfused[j], want[j], math.Float32bits(want[j]))
					}
				}
			}
		}
	})
}

// TestLanesMatchScalarChainDense is the assembly == Go statement on volume:
// the lanes against the scalar chain over a dense grid of GELU arguments, on
// each bias + GELU body, and a few thousand wide-ranging score rows.
func TestLanesMatchScalarChainDense(t *testing.T) {
	var grid []float32
	for i := -13 << 14; i <= 13<<14; i++ {
		grid = append(grid, float32(i)/(1<<14))
	}
	eachGeluBody(t, func(t *testing.T) {
		got := append([]float32(nil), grid...)
		AddBiasAct(ActGELU, got, make([]float32, len(grid)), 1, len(grid))
		for j, x := range grid {
			if want := refGelu(x); !sameBits(got[j], want) {
				t.Fatalf("gelu(%g): lanes %g (%#08x), scalar chain %g (%#08x)", x, got[j], math.Float32bits(got[j]), want, math.Float32bits(want))
			}
		}
	})
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 4096; trial++ {
		src := randSlice(rng, 61+trial%7)
		spread := float32(math.Exp(rng.Float64() * 5)) // 1 … 148: some rows reach the flush threshold
		for j := range src {
			src[j] *= spread
		}
		want := append([]float32(nil), src...)
		refSoftmaxRow(want)
		softmaxRow(src)
		for j := range want {
			if !sameBits(src[j], want[j]) {
				t.Fatalf("trial %d [%d]: lanes %g (%#08x), scalar chain %g (%#08x)", trial, j, src[j], math.Float32bits(src[j]), want[j], math.Float32bits(want[j]))
			}
		}
	}
}

func TestLayerNormBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range refLengths()[1:] {
		const rows = 3
		x, res, bias := randSlice(rng, rows*n), randSlice(rng, rows*n), randSlice(rng, n)
		gamma, beta := randSlice(rng, n), randSlice(rng, n)
		want := append([]float32(nil), x...)
		wantFused := make([]float32, rows*n)
		for r := 0; r < rows; r++ {
			refLayerNormRow(want[r*n:(r+1)*n], gamma, beta, 1e-5)
			row := wantFused[r*n : (r+1)*n]
			for j := range row {
				row[j] = x[r*n+j] + (res[r*n+j] + bias[j])
			}
			refLayerNormRow(row, gamma, beta, 1e-5)
		}
		got := offAlloc(x, n%4)
		LayerNorm(got, gamma, beta, rows, n, 1e-5)
		gotFused := offAlloc(x, (n+1)%4)
		AddBiasLayerNorm(gotFused, res, bias, gamma, beta, rows, n, 1e-5)
		for j := range want {
			if !sameBits(got[j], want[j]) || !sameBits(gotFused[j], wantFused[j]) {
				t.Fatalf("n=%d [%d]: LayerNorm %g vs %g, AddBiasLayerNorm %g vs %g", n, j, got[j], want[j], gotFused[j], wantFused[j])
			}
		}
	}
}

// TestExpfEdgeTable pins expf's range rules on the scalar chain, then reads
// the same table back through the lanes: in a row [0, x] with e^x under 2⁻²⁴
// the sum is exactly 1, so the second probability is expf(x) itself.
func TestExpfEdgeTable(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, c := range []struct {
		x    float32
		want func(y float32) bool
		what string
	}{
		{negInf, func(y float32) bool { return math.Float32bits(y) == 0 }, "exactly +0"},
		{-87.34, func(y float32) bool { return math.Float32bits(y) == 0 }, "exactly +0"},
		{math.Nextafter32(expLo, negInf), func(y float32) bool { return math.Float32bits(y) == 0 }, "exactly +0"},
		{expLo, func(y float32) bool { return y >= 0x1p-126 && y < 0x1p-125 }, "the smallest normal results"},
		{-1e30, func(y float32) bool { return math.Float32bits(y) == 0 }, "exactly +0"},
		{negZero, func(y float32) bool { return y == 1 }, "exactly 1"},
		{0, func(y float32) bool { return y == 1 }, "exactly 1"},
		{1e-42, func(y float32) bool { return y == 1 }, "exactly 1"},
		{-1e-42, func(y float32) bool { return y == 1 }, "exactly 1"},
		{nan32, func(y float32) bool { return y != y }, "NaN"},
		{88, func(y float32) bool { return y > 1.6e38 && y < 1.7e38 }, "e^88"},
		{89, func(y float32) bool { return y == posInf }, "+Inf"},
		{1e30, func(y float32) bool { return y == posInf }, "+Inf"},
		{posInf, func(y float32) bool { return y == posInf }, "+Inf"},
	} {
		if y := expf(c.x); !c.want(y) {
			t.Errorf("expf(%g) = %g (%#08x), want %s", c.x, y, math.Float32bits(y), c.what)
		}
		if !(c.x < -17) { // a NaN makes the whole row NaN
			continue
		}
		for n := 2; n <= 6; n++ { // x in a whole group, and in every tail position
			row := make([]float32, n)
			for j := range row {
				row[j] = negInf
			}
			row[0], row[n-1] = 0, c.x
			softmaxRow(row)
			if !sameBits(row[n-1], expf(c.x)) || row[0] != 1 {
				t.Errorf("softmax [0 … %g] (n=%d) = [%g … %g (%#08x)], want 1 and expf = %g", c.x, n, row[0], row[n-1], math.Float32bits(row[n-1]), expf(c.x))
			}
		}
	}
}

// TestSoftmaxSpecials: one rule, in softmaxRow — an empty row and a row with
// nothing to attend to are all zeros on every path, never NaN.
func TestSoftmaxSpecials(t *testing.T) {
	Softmax(nil, 3, 0)
	for n := 1; n <= 9; n++ {
		row := make([]float32, n)
		for j := range row {
			row[j] = negInf
		}
		Softmax(row, 1, n)
		for j, v := range row {
			if math.Float32bits(v) != 0 {
				t.Fatalf("all −Inf row of %d: [%d] = %g, want +0", n, j, v)
			}
		}
	}
	scores := randSlice(rand.New(rand.NewSource(5)), 2*3*5)
	MaskedScaledSoftmax(scores, 2, 1, 3, 5, 0.5, []int{0, 5})
	for j, v := range scores[:15] {
		if math.Float32bits(v) != 0 {
			t.Fatalf("fully masked request: score %d = %g, want +0", j, v)
		}
	}
	var sum float64
	for _, v := range scores[15:20] {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("unmasked request next to a fully masked one sums to %g", sum)
	}
}

// TestGeluFarOut: large |x| returns x and −0 — e^(−2u) under- or overflows,
// x³ may too — and never the NaN of ∞/∞.
func TestGeluFarOut(t *testing.T) {
	for _, x := range []float32{10.2, 12, 50, 1e4, 7e12, 1e13, 1e20, 3e38} {
		if y := gelu(x); y != x {
			t.Errorf("gelu(%g) = %g, want x", x, y)
		}
		if y := gelu(-x); y != 0 || !math.Signbit(float64(y)) {
			t.Errorf("gelu(%g) = %g, want −0", -x, y)
		}
	}
	if y := gelu(posInf); y != posInf {
		t.Errorf("gelu(+Inf) = %g", y)
	}
}

// expfULPs is |expf(x) − e^x| in units of the float32 spacing at e^x.
func expfULPs(x float32) float64 {
	want := math.Exp(float64(x))
	w := float32(want)
	ulp := float64(math.Nextafter32(w, posInf)) - float64(w)
	return math.Abs(float64(expf(x))-want) / ulp
}

// TestExpfWithinOneULP walks a stratified 2²⁰-point sample of [−87.34, 0] —
// one float32 drawn from each equal slice of the bit range, so every binade
// is covered in proportion — against the float64 exponential. The worst case
// over every float32 in the range is 0.982 (TestExpfExhaustive, -tags
// exhaustive).
func TestExpfWithinOneULP(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	lo, hi := math.Float32bits(float32(math.Copysign(0, -1))), math.Float32bits(-87.34)
	const strata = 1 << 20
	step := (hi - lo) / strata
	var worst float64
	var at float32
	for i := uint32(0); i < strata; i++ {
		x := math.Float32frombits(lo + i*step + uint32(rng.Intn(int(step))))
		if x < expLo {
			if y := expf(x); y != 0 {
				t.Fatalf("expf(%g) = %g below the flush threshold", x, y)
			}
			continue
		}
		if e := expfULPs(x); e > worst {
			worst, at = e, x
		}
	}
	t.Logf("worst error %.3f ULP at %g", worst, at)
	if worst >= 1 {
		t.Fatalf("expf(%g) is %.3f ULP from the float64 exponential, bound 1", at, worst)
	}
}

// TestGeluErrorBound: within 2⁻²¹·max(1,|x|) of the float64 tanh form the
// kernel replaced, on a dense grid of [−12, 12].
func TestGeluErrorBound(t *testing.T) {
	const c = 0.7978845608028654
	var worst float64
	for i := -12 << 14; i <= 12<<14; i++ {
		x := float32(i) / (1 << 14)
		x64 := float64(x)
		want := 0.5 * x64 * (1 + math.Tanh(c*(x64+0.044715*x64*x64*x64)))
		err := math.Abs(float64(gelu(x))-want) / math.Max(1, math.Abs(x64))
		if err > worst {
			worst = err
		}
		if err > 0x1p-21 {
			t.Fatalf("gelu(%g) = %g, float64 tanh form %g: off by %g·max(1,|x|), bound 2⁻²¹", x, gelu(x), want, err)
		}
	}
	t.Logf("worst error %.3g·max(1,|x|) (bound %.3g)", worst, 0x1p-21)
}

// TestSoftmaxRowsSumToOne: probabilities in [0, 1] that sum to 1 within
// n·2⁻²³ — the partial sums are float32.
func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, n := range refLengths()[1:] {
		for trial := 0; trial < 20; trial++ {
			row := randSlice(rng, n)
			for j := range row {
				row[j] *= 5
			}
			softmaxRow(row)
			var sum float64
			for _, v := range row {
				if v < 0 || v > 1 {
					t.Fatalf("n=%d: softmax value out of range: %v", n, v)
				}
				sum += float64(v)
			}
			if bound := float64(n) * 0x1p-23; math.Abs(sum-1) > bound {
				t.Fatalf("n=%d: row sums to 1%+g, bound ±%g", n, sum-1, bound)
			}
		}
	}
}

func BenchmarkSoftmaxRow(b *testing.B) {
	for _, n := range []int{8, 32, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := randSlice(rand.New(rand.NewSource(1)), n)
			row := make([]float32, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(row, src)
				softmaxRow(row)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
		})
	}
}

// BenchmarkAddBiasAct is the FFN's bias + activation over one classify-varlen
// batch's intermediate: GELU once per body this build and CPU have (avx512,
// sse2 or go), ReLU on its one (go). At one P every body must report 0
// allocs/op.
func BenchmarkAddBiasAct(b *testing.B) {
	const rows, n = 34, 512
	rng := rand.New(rand.NewSource(2))
	src, bias := randSlice(rng, rows*n), randSlice(rng, n)
	x := make([]float32, rows*n)
	run := func(name string, act Activation) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				copy(x, src)
				AddBiasAct(act, x, bias, rows, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows*n), "ns/elem")
		})
	}
	bodies := geluBodies()
	defer bodies[0].use()
	for _, body := range bodies {
		body.use()
		run("gelu/"+body.name, ActGELU)
	}
	run("relu/go", ActReLU)
}
