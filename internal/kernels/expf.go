package kernels

import "math"

// The float32 exponential under Softmax and GELU, and the statement of its
// order invariant (DESIGN.md §2): every element is one fixed chain of float32
// operations, each product written float32(a*b) so that no compiler fuses it
// into the add that follows. lanes_amd64.s runs the same chain four elements
// at a time, and sixteen for bias + GELU on AVX-512; this file is what it is
// held to, bit for bit.
//
//	t = min(x, expHi)·log2e + 1.5·2²³
//	n = t − 1.5·2²³                        round to nearest even, no libm
//	r = (x − n·ln2Hi) − n·ln2Lo            Cody–Waite, n·ln2Hi is exact
//	p = ((c0·r + c1)·r + … + c5)·r² + r + 1
//	e = p·2ⁿ                               2ⁿ: n added to 1.0's exponent field
//
// t's low mantissa bits are n, so 2ⁿ is an integer shift and add and the
// multiply is exact. Inputs below expLo (−Inf too) give exactly +0 — the
// result would be subnormal; expf(±0) is exactly 1; a NaN comes back a NaN.
// At n = 128 (x·log2e ≥ 127.5, x ≳ 88.38) the exponent field runs out and 2ⁿ
// is +Inf, and so is every result from there up: expHi only keeps n at 128.
// Against the float64 exponential the error is under 1 ULP on every float32
// in [expLo, 0] (0.982 at worst, TestExpfExhaustive).
const (
	expLog2e = float32(1.44269504088896341)
	expMagic = float32(1.5 * (1 << 23))
	expLn2Hi = float32(0.693359375) // 9 significant bits
	expLn2Lo = float32(-2.12194440e-4)
	expLo    = float32(-87.33) // e^expLo is the last result above 2⁻¹²⁶
	expHi    = float32(88.5)

	// Cephes' expf polynomial for (e^r − 1 − r)/r² on |r| ≤ ln2/2.
	expC0 = float32(1.9875691500e-4)
	expC1 = float32(1.3981999507e-3)
	expC2 = float32(8.3334519073e-3)
	expC3 = float32(4.1665795894e-2)
	expC4 = float32(1.6666665459e-1)
	expC5 = float32(5.0000001201e-1)
)

func expf(x float32) float32 {
	switch {
	case x < expLo:
		return 0
	case x != x:
		return x
	}
	t := float32(min(x, expHi)*expLog2e) + expMagic
	n := t - expMagic
	r := x - float32(n*expLn2Hi)
	r -= float32(n * expLn2Lo)
	q := float32(expC0*r) + expC1
	q = float32(q*r) + expC2
	q = float32(q*r) + expC3
	q = float32(q*r) + expC4
	q = float32(q*r) + expC5
	p := float32(q*float32(r*r)) + r + 1
	return p * math.Float32frombits(math.Float32bits(t)<<23+math.Float32bits(1))
}

// gelu is BERT's tanh approximation ½x(1 + tanh u), u = √(2/π)(x + 0.044715x³),
// through the identity ½(1 + tanh u) = 1/(1 + e^(−2u)): one expf and one
// divide per element. Far out it returns x (e^(−2u) = 0) and −0 (x/+Inf).
func gelu(x float32) float32 {
	const (
		c = float32(0.044715)
		k = float32(-2 * 0.7978845608028654) // −2√(2/π)
	)
	x3 := float32(float32(x*x) * x)
	return x / (1 + expf(float32(k*(x+float32(c*x3)))))
}

// addBiasGelu is row[j] = gelu(row[j] + bias[j]): whole groups of four in
// lanes (of sixteen first, where the AVX-512 body runs), the last len mod 4
// elements through the scalar chain — the same bits.
func addBiasGelu(row, bias []float32) {
	n4 := len(row) &^ 3
	addBiasGeluLanes(row[:n4], bias)
	for j := n4; j < len(row); j++ {
		row[j] = gelu(row[j] + bias[j])
	}
}
