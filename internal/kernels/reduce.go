package kernels

import (
	"math"

	"repro/internal/parallel"
)

// Softmax computes a numerically-stable softmax over the last dimension of
// x viewed as rows×cols, in place. This is the CPU reference for the GPU
// batch-reduction study (§4.1.2): max-reduce, exp, sum-reduce, divide.
func Softmax(x []float32, rows, cols int) {
	checkLen("Softmax x", x, rows*cols)
	parallel.For(rows, rowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			softmaxRow(x[r*cols : (r+1)*cols])
		}
	})
}

// MaskedScaledSoftmax is the fused "Softmax" attention kernel
// (ApplyMaskAndSoftmax in Fig. 10): scores are scaled by 1/sqrt(headDim),
// key positions ≥ seqLens[b] are masked to -inf (zero-padding of short
// requests in a batch, §5), then row-softmax is applied.
//
// scores has shape [batch, heads, seqQ, seqK]; seqLens has length batch and
// gives each request's true length. A nil seqLens means no masking.
func MaskedScaledSoftmax(scores []float32, batch, heads, seqQ, seqK int, scale float32, seqLens []int) {
	checkLen("MaskedScaledSoftmax scores", scores, batch*heads*seqQ*seqK)
	rows := batch * heads * seqQ
	parallel.For(rows, rowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			b := r / (heads * seqQ)
			valid := seqK
			if seqLens != nil {
				valid = seqLens[b]
				if valid > seqK {
					valid = seqK
				}
			}
			row := scores[r*seqK : (r+1)*seqK]
			if scale != 1 { // the fused chain folded it into the score GEMM
				for j := 0; j < valid; j++ {
					row[j] *= scale
				}
			}
			negInf := float32(math.Inf(-1))
			for j := valid; j < seqK; j++ {
				row[j] = negInf
			}
			softmaxRow(row)
		}
	})
}

// LayerNorm normalises each row of x (rows×n) to zero mean / unit variance
// then applies the affine transform gamma*x+beta, in place.
func LayerNorm(x []float32, gamma, beta []float32, rows, n int, eps float32) {
	checkLen("LayerNorm x", x, rows*n)
	checkLen("LayerNorm gamma", gamma, n)
	checkLen("LayerNorm beta", beta, n)
	parallel.For(rows, rowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			layerNormRow(x[r*n:(r+1)*n], gamma, beta, eps)
		}
	})
}

func layerNormRow(row []float32, gamma, beta []float32, eps float32) {
	// Single-pass E(x²)−E²(x) formulation (Eq. 1 of the paper): one traversal
	// accumulates both float64 moments in ascending order, mirroring the GPU
	// kernel's fused reduction. Products are rounded before they are added
	// (DESIGN.md §2), here and in the affine step.
	var sum, sumSq float64
	for _, v := range row {
		f := float64(v)
		sum += f
		sumSq += float64(f * f)
	}
	n := float64(len(row))
	mean := sum / n
	variance := sumSq/n - float64(mean*mean)
	if variance < 0 {
		variance = 0 // guard FP cancellation
	}
	inv := float32(1 / math.Sqrt(variance+float64(eps)))
	m := float32(mean)
	for i, v := range row {
		row[i] = float32(float32((v-m)*inv)*gamma[i]) + beta[i]
	}
}

// AddBiasLayerNorm is the fused kernel "add bias + Layer Norm" of Fig. 3b:
// out = LayerNorm(x + residual + bias), written into x.
func AddBiasLayerNorm(x, residual, bias, gamma, beta []float32, rows, n int, eps float32) {
	checkLen("AddBiasLayerNorm x", x, rows*n)
	checkLen("AddBiasLayerNorm residual", residual, rows*n)
	checkLen("AddBiasLayerNorm bias", bias, n)
	parallel.For(rows, rowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := x[r*n : (r+1)*n]
			res := residual[r*n : (r+1)*n]
			for j := range row {
				row[j] += res[j] + bias[j]
			}
			layerNormRow(row, gamma, beta, eps)
		}
	})
}
