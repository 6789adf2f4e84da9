package bench

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
)

// metricsMu guards the collected key metrics. Modeled experiments call
// RecordMetric as they run and WriteMetricsFile persists the accumulated
// map (turbo-bench -json). Live experiments record nothing, so the file is
// the same bytes on every run of the same -run list; measured trajectories
// belong to cmd/turbo-ledger.
var (
	metricsMu sync.Mutex
	metrics   = map[string]map[string]float64{}
)

// RecordMetric stores one key metric of an experiment run, e.g.
// RecordMetric("autoscale", "p99_ms/fixed-2", 12.3). Later
// records of the same key overwrite — a rerun supersedes.
func RecordMetric(experiment, name string, value float64) {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	m, ok := metrics[experiment]
	if !ok {
		m = map[string]float64{}
		metrics[experiment] = m
	}
	m[name] = value
}

// MetricsSnapshot returns a deep copy of everything recorded so far.
func MetricsSnapshot() map[string]map[string]float64 {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	out := make(map[string]map[string]float64, len(metrics))
	for exp, m := range metrics {
		c := make(map[string]float64, len(m))
		for k, v := range m {
			c[k] = v
		}
		out[exp] = c
	}
	return out
}

// metricsFile is the on-disk shape of turbo-bench -json.
type metricsFile struct {
	Schema      string                        `json:"schema"`
	Experiments map[string]map[string]float64 `json:"experiments"`
	// Keys lists every "experiment/metric" pair in sorted order so diffs
	// between two artefacts line up without JSON-aware tooling.
	Keys []string `json:"keys"`
}

// WriteMetricsFile persists every metric recorded so far to path as JSON
// (experiment → metric → value). A run that recorded nothing writes an
// empty experiments map rather than failing.
func WriteMetricsFile(path string) error {
	snap := MetricsSnapshot()
	f := metricsFile{Schema: "turbo-bench-metrics/v1", Experiments: snap}
	for exp, m := range snap {
		for k := range m {
			f.Keys = append(f.Keys, exp+"/"+k)
		}
	}
	sort.Strings(f.Keys)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
