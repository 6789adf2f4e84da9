package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMetricsPersistence: experiments record key metrics, and
// WriteMetricsFile persists them as machine-readable JSON — experiment →
// metric → value plus a sorted key index.
func TestMetricsPersistence(t *testing.T) {
	RecordMetric("unit-test-exp", "p99_ms", 12.5)
	RecordMetric("unit-test-exp", "p99_ms", 11.5) // rerun overwrites
	RecordMetric("unit-test-exp", "speedup", 2.0)

	snap := MetricsSnapshot()
	if snap["unit-test-exp"]["p99_ms"] != 11.5 || snap["unit-test-exp"]["speedup"] != 2.0 {
		t.Fatalf("snapshot: %+v", snap["unit-test-exp"])
	}
	// The snapshot is a copy, not a window into the registry.
	snap["unit-test-exp"]["p99_ms"] = 0
	if MetricsSnapshot()["unit-test-exp"]["p99_ms"] != 11.5 {
		t.Fatal("snapshot aliases the registry")
	}

	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := WriteMetricsFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f metricsFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("artefact is not valid JSON: %v", err)
	}
	if f.Schema != "turbo-bench-metrics/v1" {
		t.Fatalf("schema %q", f.Schema)
	}
	if f.Experiments["unit-test-exp"]["p99_ms"] != 11.5 {
		t.Fatalf("persisted metrics: %+v", f.Experiments)
	}
	found := false
	for _, k := range f.Keys {
		if k == "unit-test-exp/p99_ms" {
			found = true
		}
	}
	if !found {
		t.Fatalf("key index missing entry: %v", f.Keys)
	}
}
