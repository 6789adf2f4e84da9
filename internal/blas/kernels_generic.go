//go:build !amd64 || purego

package blas

// The three inner kernels in Go: the build for every target without assembly
// (and for -tags purego), and the definition kernels_amd64.s and
// kernels_avx_amd64.s are held to.
// Each product is written float32(x*y) so that no compiler may fuse it into
// the add that follows.

// nnRows2 adds alpha*(a0;a1)*B to the n-wide rows c0 and c1.
func nnRows2(n, k int, alpha float32, a0, a1, b []float32, ldb int, c0, c1 []float32) {
	a0, a1 = a0[:k], a1[:k]
	c0, c1 = c0[:n], c1[:n]
	p := 0
	for ; p+4 <= k; p += 4 {
		x00, x01, x02, x03 := alpha*a0[p], alpha*a0[p+1], alpha*a0[p+2], alpha*a0[p+3]
		x10, x11, x12, x13 := alpha*a1[p], alpha*a1[p+1], alpha*a1[p+2], alpha*a1[p+3]
		b0, b1, b2, b3 := b[p*ldb:][:n], b[(p+1)*ldb:][:n], b[(p+2)*ldb:][:n], b[(p+3)*ldb:][:n]
		for j := range c0 {
			v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
			c0[j] = c0[j] + float32(x00*v0) + float32(x01*v1) + float32(x02*v2) + float32(x03*v3)
			c1[j] = c1[j] + float32(x10*v0) + float32(x11*v1) + float32(x12*v2) + float32(x13*v3)
		}
	}
	for ; p < k; p++ {
		x0, x1 := alpha*a0[p], alpha*a1[p]
		bp := b[p*ldb:][:n]
		for j := range c0 {
			v := bp[j]
			c0[j] += float32(x0 * v)
			c1[j] += float32(x1 * v)
		}
	}
}

// nnRow is nnRows2 for a single row: the odd last row of a call, and every
// row of a one-row (decode step) call.
func nnRow(n, k int, alpha float32, a0, b []float32, ldb int, c0 []float32) {
	a0 = a0[:k]
	c0 = c0[:n]
	p := 0
	for ; p+4 <= k; p += 4 {
		x0, x1, x2, x3 := alpha*a0[p], alpha*a0[p+1], alpha*a0[p+2], alpha*a0[p+3]
		b0, b1, b2, b3 := b[p*ldb:][:n], b[(p+1)*ldb:][:n], b[(p+2)*ldb:][:n], b[(p+3)*ldb:][:n]
		for j := range c0 {
			c0[j] = c0[j] + float32(x0*b0[j]) + float32(x1*b1[j]) + float32(x2*b2[j]) + float32(x3*b3[j])
		}
	}
	for ; p < k; p++ {
		x0 := alpha * a0[p]
		bp := b[p*ldb:][:n]
		for j := range c0 {
			c0[j] += float32(x0 * bp[j])
		}
	}
}

// dot2 returns x·y and x·z over len(x) elements in gemmNT's order.
func dot2(x, y, z []float32) (float32, float32) {
	y, z = y[:len(x)], z[:len(x)]
	var s0, s1, s2, s3, t0, t1, t2, t3 float32
	p := 0
	for ; p+4 <= len(x); p += 4 {
		x4, y4, z4 := x[p:p+4:p+4], y[p:p+4:p+4], z[p:p+4:p+4]
		s0 += float32(x4[0] * y4[0])
		s1 += float32(x4[1] * y4[1])
		s2 += float32(x4[2] * y4[2])
		s3 += float32(x4[3] * y4[3])
		t0 += float32(x4[0] * z4[0])
		t1 += float32(x4[1] * z4[1])
		t2 += float32(x4[2] * z4[2])
		t3 += float32(x4[3] * z4[3])
	}
	s, t := s0+s1+s2+s3, t0+t1+t2+t3
	for ; p < len(x); p++ {
		s += float32(x[p] * y[p])
		t += float32(x[p] * z[p])
	}
	return s, t
}
