package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef is one row of the metric tables below, the single source the
// report, BENCHMARK.json (checked by the unit test) and -compare agree on.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Tag    string  // live (timed on this machine), count (exact or counted), modeled (cudasim)
}

// End-to-end metrics: what a client of the service sees. Every workload
// reports every one of them, so latency is defined over all requests of the
// run, whichever endpoint they went to (README, "End-to-end metrics").
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, "live"},
	{"lat_p50_ms", "ms", "lower", 0.25, "live"},
	{"ttft_p50_ms", "ms", "lower", 0.25, "live"},
	{"sat_req_per_s", "1/s", "higher", 0.25, "live"},
	{"slo_ok_share", "share", "higher", 0.05, "live"},
}

// Per-layer metrics, <module>.<name>. A metric whose layer the workload does
// not exercise (no request of that kind, one replica) reads 0.
var perLayerDefs = []metricDef{
	{Name: "serving.batch_size_mean", Unit: "count", Better: "higher", Tag: "count"},
	{Name: "serving.gen_batch_mean", Unit: "count", Better: "higher", Tag: "count"},
	{Name: "serving.in_flight_mean", Unit: "count", Better: "lower", Tag: "count"},
	{Name: "serving.overhead_us", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "serving.prefill_prompts_per_pass", Unit: "count", Better: "higher", Tag: "count"},
	{Name: "serving.prefix_hit_share", Unit: "share", Better: "higher", Tag: "count"},
	{Name: "serving.replay_tokens", Unit: "count", Better: "higher", Tag: "count"},
	{Name: "serving.preemptions", Unit: "count", Better: "lower", Tag: "count"},
	{Name: "serving.kv_blocks_shared_peak", Unit: "count", Better: "higher", Tag: "count"},
	{Name: "serving.rejected", Unit: "count", Better: "lower", Tag: "count"},
	{Name: "serving.expired", Unit: "count", Better: "lower", Tag: "count"},
	{Name: "serving.cancelled", Unit: "count", Better: "lower", Tag: "count"},
	{Name: "serving.lat_p95_ms", Unit: "ms", Better: "lower", Tag: "live"},
	{Name: "serving.ttft_p95_ms", Unit: "ms", Better: "lower", Tag: "live"},
	{Name: "serving.classify_lat_p50_ms", Unit: "ms", Better: "lower", Tag: "live"},
	{Name: "serving.gen_ttft_p50_ms", Unit: "ms", Better: "lower", Tag: "live"},
	{Name: "serving.tpot_p50_ms", Unit: "ms", Better: "lower", Tag: "live"},
	{Name: "serving.tpot_p99_ms", Unit: "ms", Better: "lower", Tag: "live"},

	{Name: "router.overhead_us", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "router.load_imbalance", Unit: "ratio", Better: "lower", Tag: "count"},
	{Name: "router.prefix_affinity_share", Unit: "share", Better: "higher", Tag: "count"},

	{Name: "sched.dp_schedule_us", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "sched.dp_cost_ratio", Unit: "ratio", Better: "lower", Tag: "count"},
	{Name: "sched.dp_batches_per_window", Unit: "count", Better: "lower", Tag: "count"},
	{Name: "sched.cont_cycle_us", Unit: "us", Better: "lower", Tag: "live"},

	{Name: "core.classify_us_per_tok", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "core.classify_self_us", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "core.prefill_us_per_tok", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "core.step_us_per_tok.b1", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "core.step_us_per_tok.b4", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "core.step_us_per_tok.b8", Unit: "us", Better: "lower", Tag: "live"},

	{Name: "model.embed_us", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "model.encoder_us", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "model.head_us", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "model.kv_bytes_per_token", Unit: "B", Better: "lower", Tag: "count"},

	{Name: "allocator.plan_us", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "allocator.footprint_mib", Unit: "MiB", Better: "lower", Tag: "count"},
	{Name: "allocator.peak_device_mib", Unit: "MiB", Better: "lower", Tag: "count"},
	{Name: "allocator.malloc_count", Unit: "count", Better: "lower", Tag: "count"},
	{Name: "allocator.malloc_mib", Unit: "MiB", Better: "lower", Tag: "count"},
	{Name: "allocator.blockpool_cycle_ns", Unit: "ns", Better: "lower", Tag: "live"},
	{Name: "allocator.kv_reserved_over_used", Unit: "ratio", Better: "lower", Tag: "count"},

	{Name: "graph.exec_us", Unit: "us", Better: "lower", Tag: "live"},

	{Name: "kernels.softmax_us", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "kernels.layernorm_us", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "kernels.bias_act_us", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "kernels.bytes_moved_mib", Unit: "MiB", Better: "lower", Tag: "count"},

	{Name: "blas.gemm_us", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "blas.gemm_gflops", Unit: "GFLOP/s", Better: "higher", Tag: "live"},
	{Name: "blas.grouped_gemm_us", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "blas.gemv_us", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "blas.gemm_f16_us", Unit: "us", Better: "lower", Tag: "live"},
	{Name: "blas.encode_half_ns_per_elem", Unit: "ns", Better: "lower", Tag: "live"},

	{Name: "reduction.softmax_modeled_us", Unit: "us", Better: "lower", Tag: "modeled"},
	{Name: "reduction.layernorm_modeled_us", Unit: "us", Better: "lower", Tag: "modeled"},

	{Name: "harness.gen_late_p99_ms", Unit: "ms", Better: "lower", Tag: "live"},
	{Name: "harness.slo_miss_share", Unit: "share", Better: "lower", Tag: "live"},
	{Name: "harness.trace_overhead_share", Unit: "share", Better: "lower", Tag: "live"},
}

// metric is one measured value. N is the sample count behind a percentile
// or mean (0 when the value is not a sample statistic); Null marks a value
// whose source key or probe was missing.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Tag   string  `json:"tag"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
	Null  bool    `json:"null,omitempty"`
}

// metricSet collects values against a definition table and reports what a
// refactor took away as a warning instead of a failure.
type metricSet struct {
	defs     []metricDef
	got      map[string]metric
	warnings []string
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, got: map[string]metric{}}
}

func (s *metricSet) def(name string) metricDef {
	for _, d := range s.defs {
		if d.Name == name {
			return d
		}
	}
	panic("turbo-ledger: metric " + name + " is not in the table") // a bug in this program
}

// set records a value; a non-finite one is recorded as null.
func (s *metricSet) set(name string, v float64, n int) {
	d := s.def(name)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.null(name, "value is not finite")
		return
	}
	s.got[name] = metric{Name: name, Unit: d.Unit, Tag: d.Tag, Value: v, N: n}
}

// null records that a metric's source was missing.
func (s *metricSet) null(name, why string) {
	d := s.def(name)
	s.got[name] = metric{Name: name, Unit: d.Unit, Tag: d.Tag, Null: true}
	s.warnings = append(s.warnings, fmt.Sprintf("%s: null (%s)", name, why))
}

// list returns every defined metric in table order; one never set is null.
func (s *metricSet) list() []metric {
	out := make([]metric, 0, len(s.defs))
	for _, d := range s.defs {
		if _, ok := s.got[d.Name]; !ok {
			s.null(d.Name, "not measured")
		}
		out = append(out, s.got[d.Name])
	}
	return out
}

// percentile is the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// num reads a numeric /v1/stats field.
func num(m map[string]any, key string) (float64, bool) {
	v, ok := m[key].(float64)
	return v, ok
}

// delta is after[key] − before[key]; ok is false when either side lacks it.
func delta(before, after map[string]any, key string) (float64, bool) {
	a, ok1 := num(after, key)
	b, ok2 := num(before, key)
	return a - b, ok1 && ok2
}
