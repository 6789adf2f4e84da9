package tensor

import "math/rand"

// RandN fills a new tensor of the given shape with pseudo-normal values
// (mean 0, stddev) drawn from a deterministic source seeded with seed.
// All experiments in this repo use seeded generators so results are
// reproducible run to run, matching the paper's fixed-seed methodology
// (§6.2.1: "the random seed is the same for different tests").
func RandN(seed int64, stddev float32, shape ...int) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64()) * stddev
	}
	return t
}

// RandUniform fills a new tensor with uniform values in [lo, hi).
func RandUniform(seed int64, lo, hi float32, shape ...int) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := New(shape...)
	span := hi - lo
	for i := range t.data {
		t.data[i] = lo + rng.Float32()*span
	}
	return t
}
