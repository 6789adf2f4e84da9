package perf

import (
	"time"

	"repro/internal/reduction"
)

// Profile parameterises one inference runtime over the shared latency
// model. The axes are the ones Table 1 compares: kernel fusion, launch
// overhead, reduction-kernel quality, GEMM tuning, Tensor-Core use, and
// variable-length capability.
type Profile struct {
	Name string

	// Fused selects the Fig. 3b graph (12 ops/layer); unfused runtimes
	// execute the Fig. 3a graph (24 ops/layer).
	Fused bool

	// LaunchOverhead is charged per kernel (dispatch + framework glue).
	LaunchOverhead time.Duration

	// GemmEff is the fraction of peak FLOP/s the runtime's GEMM achieves.
	GemmEff float64

	// TensorCore prices GEMMs at FP16 Tensor-Core rates (Turbo-TC).
	TensorCore bool

	// SoftmaxImpl / LayerNormImpl select the simulated kernel algorithm.
	SoftmaxImpl   reduction.SoftmaxImpl
	LayerNormImpl reduction.LayerNormImpl

	// SoftmaxPenalty / LayerNormPenalty are measured framework
	// inefficiencies on top of the simulated kernel (generic dispatch,
	// extra mask materialisation, non-contiguous layouts). Calibrated so
	// Table 2's "before" proportions land; 1.0 for tuned runtimes.
	SoftmaxPenalty   float64
	LayerNormPenalty float64

	// ElementwiseEff is the fraction of DRAM bandwidth element-wise kernels
	// achieve.
	ElementwiseEff float64

	// VariableLength marks runtimes usable on variable-length input without
	// per-shape preprocessing (Table 1's "Variable-Len" column). Fixed-
	// length engines only appear in the Fig. 14 fixed-shape comparison.
	VariableLength bool

	// Preprocess marks engines needing an offline tuning step (Table 1).
	Preprocess bool
}

// The evaluated runtimes.

// Turbo is the TurboTransformers runtime: fused graph, the paper's
// batch-reduction kernels, no preprocessing, variable-length native.
func Turbo() Profile {
	return Profile{
		Name:           "Turbo",
		Fused:          true,
		LaunchOverhead: 5 * time.Microsecond,
		GemmEff:        0.72,
		SoftmaxImpl:    reduction.SoftmaxTurbo,
		LayerNormImpl:  reduction.LayerNormTurbo,
		SoftmaxPenalty: 1, LayerNormPenalty: 1,
		ElementwiseEff: 0.85,
		VariableLength: true,
	}
}

// TurboTC is Turbo with FP16 Tensor-Core GEMMs enabled (§6.2.1: "minimal
// and acceptable precision loss").
func TurboTC() Profile {
	p := Turbo()
	p.Name = "Turbo-TC"
	p.TensorCore = true
	return p
}

// PyTorch models the v1.5 eager runtime as benchmarked end-to-end in
// Figs. 9 and 14: unfused graph, per-op Python/ATen dispatch (the dominant
// cost at short sequences), generic softmax/LayerNorm kernels.
func PyTorch() Profile {
	return Profile{
		Name:           "PyTorch",
		Fused:          false,
		LaunchOverhead: 22 * time.Microsecond,
		GemmEff:        0.72, // same cuBLAS underneath
		SoftmaxImpl:    reduction.SoftmaxCuDNN,
		LayerNormImpl:  reduction.LayerNormBaseline,
		SoftmaxPenalty: 2.5, LayerNormPenalty: 3,
		ElementwiseEff: 0.6,
		VariableLength: true,
	}
}

// PyTorchLegacyKernels models the older PyTorch kernel implementations the
// paper measured *in isolation* for Table 2 ("execution time of Softmax and
// LayerNorm is measured using PyTorch"): the multi-op LayerNorm
// decomposition and mask-materialising softmax are far slower than the
// end-to-end PyTorch path of Fig. 9, and the paper's own numbers are only
// mutually consistent if the two are separated (internal/bench/testdata/table2.txt
// and fig9.txt show both).
func PyTorchLegacyKernels() Profile {
	p := PyTorch()
	p.Name = "PyTorch-legacy-kernels"
	p.SoftmaxPenalty = 12
	p.LayerNormPenalty = 25
	return p
}

// ONNXRuntime models onnxruntime-gpu 1.3 with dynamic axes: fused
// transformer ops, decent kernels, slightly behind Turbo's reductions.
func ONNXRuntime() Profile {
	return Profile{
		Name:           "onnxruntime",
		Fused:          true,
		LaunchOverhead: 6 * time.Microsecond,
		GemmEff:        0.72,
		SoftmaxImpl:    reduction.SoftmaxBaseline,
		LayerNormImpl:  reduction.LayerNormBaseline,
		SoftmaxPenalty: 1.1, LayerNormPenalty: 1.1,
		ElementwiseEff: 0.8,
		VariableLength: true,
		Preprocess:     true,
	}
}

// TFXLA models TensorFlow 1.13 + XLA: aggressive fusion after an offline
// compile, fixed shapes only.
func TFXLA() Profile {
	return Profile{
		Name:           "TF-XLA",
		Fused:          true,
		LaunchOverhead: 5 * time.Microsecond,
		GemmEff:        0.68,
		SoftmaxImpl:    reduction.SoftmaxBaseline,
		LayerNormImpl:  reduction.LayerNormBaseline,
		SoftmaxPenalty: 1.1, LayerNormPenalty: 1.1,
		ElementwiseEff: 0.85,
		VariableLength: false,
		Preprocess:     true,
	}
}

// FasterTransformer models NVIDIA's FT v1: hand-fused kernels (the Fig. 4
// classical reductions), well-tuned GEMM algorithm selection.
func FasterTransformer() Profile {
	return Profile{
		Name:           "FasterTransformers",
		Fused:          true,
		LaunchOverhead: 4500 * time.Nanosecond,
		GemmEff:        0.78,
		SoftmaxImpl:    reduction.SoftmaxBaseline,
		LayerNormImpl:  reduction.LayerNormBaseline,
		SoftmaxPenalty: 1, LayerNormPenalty: 1,
		ElementwiseEff: 0.9,
		VariableLength: false,
		Preprocess:     true,
	}
}

// TensorRT models TensorRT 5.1.5: offline-tuned GEMM tactics and thread
// blocks ("may identify the optimal CUDA thread block sizes", §6.2.3).
func TensorRT() Profile {
	return Profile{
		Name:           "TensorRT",
		Fused:          true,
		LaunchOverhead: 3500 * time.Nanosecond,
		GemmEff:        0.84,
		SoftmaxImpl:    reduction.SoftmaxTurbo, // tuned to the same level
		LayerNormImpl:  reduction.LayerNormTurbo,
		SoftmaxPenalty: 1, LayerNormPenalty: 1,
		ElementwiseEff: 0.92,
		VariableLength: false,
		Preprocess:     true,
	}
}

// AllProfiles returns every runtime profile in the paper's comparison
// order (Table 1 / Fig. 14).
func AllProfiles() []Profile {
	return []Profile{PyTorch(), ONNXRuntime(), TFXLA(), FasterTransformer(), TensorRT(), Turbo(), TurboTC()}
}

// VariableLengthProfiles returns the runtimes that can serve
// variable-length requests (the Fig. 9 competitors).
func VariableLengthProfiles() []Profile {
	return []Profile{Turbo(), PyTorch(), ONNXRuntime(), TurboTC()}
}
