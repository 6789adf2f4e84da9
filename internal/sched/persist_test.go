package sched

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func samplePrice(l, b int) time.Duration {
	return time.Duration(l*100+b*250) * time.Microsecond
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c := BuildCachedCost(samplePrice, 200, 8, 20)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCachedCost(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{1, 57, 143, 200, 300} {
		for b := 1; b <= 10; b++ {
			if got, want := loaded.BatchCost(Uniform(l, b)), c.BatchCost(Uniform(l, b)); got != want {
				t.Fatalf("(%d,%d): %v vs %v", l, b, got, want)
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	c := BuildCachedCost(samplePrice, 50, 4, 10)
	path := filepath.Join(t.TempDir(), "cost.json")
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCachedCostFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.BatchCost(Uniform(25, 2)) != c.BatchCost(Uniform(25, 2)) {
		t.Fatal("file round trip mismatch")
	}
}

// malformedSnapshots are cost files LoadCachedCost must refuse.
var malformedSnapshots = []string{
	``,
	`{}`,
	`{"lens":[1,5],"max_batch":2,"table_ns":[[1,2]]}`,  // wrong row count
	`{"lens":[5,1],"max_batch":1,"table_ns":[[1,2]]}`,  // non-increasing lens
	`{"lens":[1,5],"max_batch":1,"table_ns":[[1]]}`,    // short row
	`{"lens":[1,5],"max_batch":1,"table_ns":[[-1,2]]}`, // negative cost
	`{"lens":[0,5],"max_batch":1,"table_ns":[[1,2]]}`,  // length below one
}

func TestLoadRejectsMalformed(t *testing.T) {
	for i, s := range malformedSnapshots {
		if _, err := LoadCachedCost(strings.NewReader(s)); err == nil {
			t.Fatalf("case %d should fail: %q", i, s)
		}
	}
}

// TestBatchCostNeverNegative: a dictionary whose final segment falls —
// from a hand-written cost file or measurement noise — extrapolates flat
// past its largest sampled length instead of down through zero.
func TestBatchCostNeverNegative(t *testing.T) {
	for _, tc := range []struct {
		snapshot string
		seqLen   int
		want     time.Duration
	}{
		{`{"lens":[1,10],"max_batch":1,"table_ns":[[100,50]]}`, 100, 50},
		{`{"lens":[1,17,33,48],"max_batch":1,"table_ns":[[10,30,60,50]]}`, 400, 50},
	} {
		c, err := LoadCachedCost(strings.NewReader(tc.snapshot))
		if err != nil {
			t.Fatal(err)
		}
		if got := c.BatchCost(Uniform(tc.seqLen, 1)); got != tc.want {
			t.Errorf("%s: BatchCost(%d, 1) = %v, want %v", tc.snapshot, tc.seqLen, got, tc.want)
		}
	}
}
