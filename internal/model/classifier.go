package model

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Classifier is the BERT-style sequence-classification head used by the
// serving experiments' target application ("a BERT-based service ... used
// to classify a paragraph of text", §6.3): pool the [CLS] position through
// a tanh dense layer, then project to class logits.
type Classifier struct {
	Hidden  int
	Classes int
	PoolW   *tensor.Tensor // [hidden, hidden]
	PoolB   *tensor.Tensor // [hidden]
	OutW    *tensor.Tensor // [hidden, classes]
	OutB    *tensor.Tensor // [classes]
}

// NewClassifier builds a deterministic random classification head.
func NewClassifier(hidden, classes int, seed int64) *Classifier {
	return &Classifier{
		Hidden:  hidden,
		Classes: classes,
		PoolW:   tensor.RandN(seed, 0.05, hidden, hidden),
		PoolB:   tensor.RandN(seed+1, 0.02, hidden),
		OutW:    tensor.RandN(seed+2, 0.05, hidden, classes),
		OutB:    tensor.RandN(seed+3, 0.02, classes),
	}
}

// LogitsPacked pools each request's [CLS] row out of a packed batch
// (request i's first row sits at Offset(i) — no stride arithmetic over a
// padded maxLen) and returns class logits [batch, classes]. The head's
// GEMMs are row-wise, so the result is bit-identical to Logits on the
// padded layout.
func (c *Classifier) LogitsPacked(hidden *tensor.Packed) (*tensor.Tensor, error) {
	if hidden.Cols() != c.Hidden {
		return nil, fmt.Errorf("model: packed classifier input width %d, want %d",
			hidden.Cols(), c.Hidden)
	}
	batch := hidden.Batch()
	cls := tensor.New(batch, c.Hidden)
	for b := 0; b < batch; b++ {
		src := hidden.Data().Data()[hidden.Offset(b)*c.Hidden : (hidden.Offset(b)+1)*c.Hidden]
		copy(cls.Data()[b*c.Hidden:(b+1)*c.Hidden], src)
	}
	return c.logitsFromCLS(cls)
}

// logitsFromCLS runs the pooled [batch, hidden] CLS rows through the tanh
// dense layer and the output projection.
func (c *Classifier) logitsFromCLS(cls *tensor.Tensor) (*tensor.Tensor, error) {
	batch := cls.Dim(0)
	pooled := tensor.New(batch, c.Hidden)
	blas.Gemm(false, false, batch, c.Hidden, c.Hidden, 1,
		cls.Data(), c.Hidden, c.PoolW.Data(), c.Hidden, 0, pooled.Data(), c.Hidden)
	kernels.AddBiasAct(kernels.ActTanh, pooled.Data(), c.PoolB.Data(), batch, c.Hidden)

	logits := tensor.New(batch, c.Classes)
	blas.Gemm(false, false, batch, c.Classes, c.Hidden, 1,
		pooled.Data(), c.Hidden, c.OutW.Data(), c.Classes, 0, logits.Data(), c.Classes)
	kernels.AddBias(logits.Data(), c.OutB.Data(), batch, c.Classes)
	return logits, nil
}

// PredictPacked returns the argmax class per request of a packed batch.
func (c *Classifier) PredictPacked(hidden *tensor.Packed) ([]int, error) {
	logits, err := c.LogitsPacked(hidden)
	if err != nil {
		return nil, err
	}
	return argmaxRows(logits, c.Classes), nil
}

func argmaxRows(logits *tensor.Tensor, classes int) []int {
	batch := logits.Dim(0)
	out := make([]int, batch)
	for b := 0; b < batch; b++ {
		row := logits.Data()[b*classes : (b+1)*classes]
		best := 0
		for i, v := range row {
			if v > row[best] {
				best = i
			}
		}
		out[b] = best
	}
	return out
}
