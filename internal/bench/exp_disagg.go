package bench

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/servingsim"
)

func init() {
	register(Experiment{
		ID:    "disagg-routing",
		Title: "Prefill/decode disaggregation: short-job tail latency under decode saturation (role-tagged cluster simulator, two-phase generations)",
		Paper: "§5's single-server iteration batching mixes compute-bound prefill with latency-bound decode; splitting the roles across replicas and migrating the KV isolates short jobs from decode interference",
		Run:   runDisaggRouting,
	})
}

// The disaggregation experiment's traffic: short classifies mixed with long
// generations (prompt + decode budget) on a 2-replica fleet.
const (
	disaggShortLo, disaggShortHi = 4, 12
	disaggGenPrompt              = 48
	disaggGenMaxNew              = 48
	disaggGenFrac                = 0.20
	disaggUtil                   = 0.70
	disaggSeed                   = 23
)

func runDisaggRouting(w io.Writer) error {
	// The SAME token-cost form the live Router prices prefill
	// (RequestCost(p,0)), decode (the complement) and mixed admissions with.
	fit := fitRouteCost(disaggGenPrompt)
	fmt.Fprintf(w, "cluster simulator (virtual clock): 2 replicas of BERT-base priced on the RTX 2060 model, gen frac %.0f%% (prompt %d + %d new), shorts %d–%d tokens, util %.0f%%\n",
		100*disaggGenFrac, disaggGenPrompt, disaggGenMaxNew, disaggShortLo, disaggShortHi, 100*disaggUtil)
	fmt.Fprintln(w, "(live hand-offs are checked exactly in internal/serving: migrated streams bit-identical to the single-replica oracle, migrated in == out bytes, KV gauges drained)")

	// The sim prices a request of length L as ONE pass over L tokens, but a
	// real decode phase is maxNew SEQUENTIAL single-token steps — each one
	// paying the fixed launch cost. Convert the decode budget to the
	// equivalent priced length under the same fit, so the sim's decode
	// requests carry the serial cost a decode replica actually bears.
	decodeCost := float64(disaggGenMaxNew) * float64(fit.RequestCost(1, 0))
	simDecodeLen := 1
	for simDecodeLen < 512 && float64(fit.RequestCost(simDecodeLen, 0)) < decodeCost {
		simDecodeLen++
	}
	// Offer load at util × 2-server capacity under the simulated mix — an
	// idle sim has no interference for the role split to remove, a
	// saturated one measures only backlog.
	shortMean := (disaggShortLo + disaggShortHi) / 2
	meanCost := (1-disaggGenFrac)*float64(fit.RequestCost(shortMean, 0)) +
		disaggGenFrac*float64(fit.RequestCost(disaggGenPrompt, 0)+fit.RequestCost(simDecodeLen, 0))

	conditions := []struct {
		name  string
		roles []serving.ReplicaRole
	}{
		{"all-mixed", []serving.ReplicaRole{serving.RoleMixed, serving.RoleMixed}},
		{"prefill+decode", []serving.ReplicaRole{serving.RolePrefill, serving.RoleDecode}},
	}
	t := newTable(w)
	t.row("sim roles", "served/s", "short-p99-ms", "migrations")
	shortP99 := map[string]float64{}
	for _, c := range conditions {
		res, err := servingsim.Run(servingsim.Config{
			Servers:  2,
			Policy:   serving.TokenCostRouting,
			Rate:     offeredRate(disaggUtil, 2, meanCost),
			Warmup:   2,
			Duration: 8,
			Seed:     disaggSeed,
			LenSampler: func(rng *rand.Rand) int {
				return disaggShortLo + rng.Intn(disaggShortHi-disaggShortLo+1)
			},
			NewScheduler: func() sched.Scheduler {
				return &sched.DPScheduler{Cost: fit, MaxBatch: 8}
			},
			Cost:           fit,
			RouteCost:      fit,
			MaxBatch:       8,
			Roles:          c.roles,
			GenFrac:        disaggGenFrac,
			DecodeLen:      simDecodeLen,
			MigrationDelay: 0.0002,
		})
		if err != nil {
			return err
		}
		shortP99[c.name] = res.ShortP99
		t.row(c.name, fmt.Sprintf("%.0f", res.ServedPerSec), fmt.Sprintf("%.2f", res.ShortP99*1e3), res.Migrations)
		RecordMetric("disagg-routing", "sim/short_p99_ms/"+c.name, res.ShortP99*1e3)
	}
	t.flush()
	// The headline gate: on a virtual clock the role split must beat
	// all-mixed on the short-job tail while two-phase generations load the
	// fleet.
	verdict := "PASS"
	if shortP99["prefill+decode"] > shortP99["all-mixed"] {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "  sim shape: prefill+decode short p99 %.2fms vs all-mixed %.2fms → %s\n",
		shortP99["prefill+decode"]*1e3, shortP99["all-mixed"]*1e3, verdict)
	return nil
}
