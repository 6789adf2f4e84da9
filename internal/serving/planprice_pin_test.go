package serving

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
)

var updatePlanPrices = flag.Bool("update", false, "rewrite testdata/plan_prices.txt from this build's prices")

const planPriceFile = "testdata/plan_prices.txt"

// planPrices reads the four prices planGenerate compares for one
// (prompt, budget) generation off the charges it lands: the whole session
// on a mixed-only router, the prefill and decode+migration phases on a
// prefill/decode router, and the migration alone as the decode charge of a
// zero-budget plan (a zero budget prices no decode).
func planPrices(mixed, split *Router, prompt, budget int) (prefill, decode, full, migration, bytes int64) {
	m := mixed.planGenerate(prompt, budget)
	full = m.mixed.loadNS.Load()
	m.releaseMixed()

	s := split.planGenerate(prompt, budget)
	prefill, decodeAndMigration, bytes := s.prefill.loadNS.Load(), s.decode.loadNS.Load(), s.estimatedBytes
	s.releasePrefill()
	s.releaseDecode()

	z := split.planGenerate(prompt, 0)
	migration = z.decode.loadNS.Load()
	z.releasePrefill()
	z.releaseDecode()
	return prefill, decodeAndMigration - migration, full, migration, bytes
}

// TestPlanGeneratePricePins holds the prices behind every disaggregated
// routing decision — prefill, decode, full session and migration, in ns,
// with the migrated bytes they were priced on — to testdata/plan_prices.txt
// over a (prompt, budget) grid, under the default route cost and under a
// warm-up fit. planGenerate's placement is a comparison of these numbers
// and the replicas' loads, so equal prices mean equal placements.
func TestPlanGeneratePricePins(t *testing.T) {
	fitted := sched.BuildCachedCost(func(l, b int) time.Duration {
		return time.Duration(30e3 + float64(l*b)*700 + float64(l*l*b)*4.5)
	}, 128, 4, 16).Fit()
	var b strings.Builder
	for _, c := range []struct {
		name string
		cfg  RouterConfig
	}{
		{"default", RouterConfig{}},
		{"fitted", RouterConfig{Cost: fitted}},
	} {
		m0, _ := handoffGenServer(t)
		mcfg := c.cfg
		mcfg.Roles = []ReplicaRole{RoleMixed}
		mixed, err := NewRouter(mcfg, m0)
		if err != nil {
			t.Fatal(err)
		}
		defer mixed.Close()
		p0, _ := handoffGenServer(t)
		d0, _ := handoffGenServer(t)
		scfg := c.cfg
		scfg.Roles = []ReplicaRole{RolePrefill, RoleDecode}
		split, err := NewRouter(scfg, p0, d0)
		if err != nil {
			t.Fatal(err)
		}
		defer split.Close()
		for _, prompt := range []int{1, 3, 8, 17, 48, 130, 499} {
			for _, budget := range []int{1, 2, 8, 33, 200} {
				prefill, decode, full, migration, bytes := planPrices(mixed, split, prompt, budget)
				fmt.Fprintf(&b, "%s/p%d/n%d: prefill=%d decode=%d full=%d migration=%d bytes=%d\n",
					c.name, prompt, budget, prefill, decode, full, migration, bytes)
			}
		}
	}
	got := b.String()

	if *updatePlanPrices {
		if err := os.WriteFile(planPriceFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(planPriceFile)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(raw); got != want {
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s line %d:\n got  %s\n want %s", planPriceFile, i+1, g[i], w[i])
			}
		}
		t.Fatalf("%s has %d lines, the grid prints %d", planPriceFile, len(w), len(g))
	}
}
