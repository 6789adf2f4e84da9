package serving

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// fillStats gives every statsResponse field a distinct non-zero value
// (field i gets mul·i+add; bools get flag), so a fold that drops, swaps or
// mis-combines a field changes the marshalled bytes.
func fillStats(mul, add int64, flag bool) statsResponse {
	var s statsResponse
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int64:
			f.SetInt(mul*int64(i) + add)
		case reflect.Float64:
			f.SetFloat(float64(mul*int64(i)+add) / 4)
		case reflect.Bool:
			f.SetBool(flag)
		}
	}
	return s
}

// TestStatsJSONShape pins the /v1/stats bytes — keys, order, values — of a
// single server and of a 2-replica router's aggregate + per-replica
// breakdown. The files were recorded with aggregateStats as a hand-written
// fold; whatever computes the aggregate has to reproduce them.
func TestStatsJSONShape(t *testing.T) {
	a, b := fillStats(3, 1, false), fillStats(5, 2, true)

	single, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	checkStatsJSON(t, "testdata/stats_single.json", single)

	routed, err := json.Marshal(RouterStats{
		Policy: TokenCostRouting.String(), Replicas: 2, ReplicasActive: 2,
		statsResponse: aggregateStats([]statsResponse{a, b}),
		PerReplica: []ReplicaStats{
			{Replica: 0, Role: RolePrefill.String(), statsResponse: a},
			{Replica: 1, Role: RoleDecode.String(), statsResponse: b},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkStatsJSON(t, "testdata/stats_routed.json", routed)
}

func checkStatsJSON(t *testing.T, file string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != strings.TrimSpace(string(want)) {
		t.Errorf("%s moved:\n got  %s\n want %s", file, got, want)
	}
}

// TestEveryStatsFieldAggregates: a statsResponse field with no agg tag (or
// one its type cannot take) would report zero fleet-wide the moment a second
// replica exists.
func TestEveryStatsFieldAggregates(t *testing.T) {
	typ := reflect.TypeOf(statsResponse{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag, kind := f.Tag.Get("agg"), f.Type.Kind()
		ok := false
		switch tag {
		case "sum":
			ok = kind == reflect.Int64 || kind == reflect.Float64
		case "max":
			ok = kind == reflect.Int64
		case "or":
			ok = kind == reflect.Bool
		}
		if !ok {
			t.Errorf("statsResponse.%s (%s): agg tag %q — want sum (int64/float64), max (int64) or or (bool)", f.Name, kind, tag)
		}
		if f.Tag.Get("json") == "" {
			t.Errorf("statsResponse.%s has no json tag", f.Name)
		}
	}
}
