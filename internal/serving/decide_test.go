package serving

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// TestClassifyRouteAllocs: classify candidates are built with the replica
// set, not per request, so a roles router's classify route allocates no more
// than a role-less one's.
func TestClassifyRouteAllocs(t *testing.T) {
	engine, err := core.NewEngine(model.BertBase().Scaled(32, 4, 64, 2), core.Options{Seed: 1, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(roles []ReplicaRole) float64 {
		rt, err := NewRouter(RouterConfig{Roles: roles}, pinServers(t, engine, 3)...)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			_, release := rt.routeClassify(4)
			release()
		})
	}
	none, roled := allocs(nil), allocs([]ReplicaRole{RoleMixed, RolePrefill, RoleDecode})
	if roled > none {
		t.Fatalf("classify route allocates %.1f times under roles, %.1f without", roled, none)
	}
}

// gauged is a replica as the decisions see it, with gauges set by hand.
type gauged struct {
	role           ReplicaRole
	inflight, load int64
}

func (g *gauged) Role() ReplicaRole { return g.role }
func (g *gauged) InFlight() int64   { return g.inflight }
func (g *gauged) Load() int64       { return g.load }

// leastOf is the first replica of the given role with the least load, or
// nil when the role is absent.
func leastOf(fleet []*gauged, role ReplicaRole) *gauged {
	var best *gauged
	for _, r := range fleet {
		if r.role == role && (best == nil || r.load < best.load) {
			best = r
		}
	}
	return best
}

// FuzzPlanGeneration drives the fleet's decisions over random role lists,
// gauges and prices and checks what every caller relies on: a pick over a
// non-empty candidate set is a member of it, the policy's first minimum;
// classify candidates are the non-decode replicas, or all when none is;
// a generation's prefill never lands on a decode replica nor its decode on
// a prefill replica; the chosen side's priced cost is no more than the
// other's; a tie goes to mixed; and the scale-down victim is the first
// with the fewest in flight, then the least load. roles[i] % 3 tags replica
// i (no roles: three untagged replicas); gauges pairs in-flight and load
// bytes per replica; tie lifts every mixed load to the split's cost.
func FuzzPlanGeneration(f *testing.F) {
	f.Add([]byte{0, 1, 2}, []byte{0, 9, 1, 3, 0, 4}, uint16(500), uint16(200), uint16(300), uint16(1000), uint8(2), uint8(0), false)
	f.Fuzz(func(t *testing.T, roles, gauges []byte, full, prefill, decode, migration uint16, policy, turn uint8, tie bool) {
		roled := len(roles) > 0
		n := min(len(roles), 8)
		if !roled {
			n = 3
		}
		fleet := make([]*gauged, n)
		list := make([]ReplicaRole, n)
		for i := range fleet {
			fleet[i] = &gauged{}
			if roled {
				fleet[i].role = ReplicaRole(roles[i] % 3)
			}
			list[i] = fleet[i].role
			if 2*i+1 < len(gauges) {
				fleet[i].inflight, fleet[i].load = int64(gauges[2*i]%4), 100*int64(gauges[2*i+1])
			}
		}
		pol := BalancePolicy(policy % 3)
		pr := GenPrices{Full: int64(full), Prefill: int64(prefill), Decode: int64(decode), Migration: int64(migration)}

		key := func(r *gauged) int64 {
			if pol == LeastQueue {
				return r.inflight
			}
			return r.load
		}
		classify := ClassifyCandidates(fleet)
		nonDecode := slices.DeleteFunc(slices.Clone(fleet), func(r *gauged) bool { return r.role == RoleDecode })
		if len(nonDecode) == 0 {
			nonDecode = fleet
		}
		if !slices.Equal(classify, nonDecode) {
			t.Fatalf("classify candidates %v, want the non-decode replicas %v", classify, nonDecode)
		}
		for _, cands := range [][]*gauged{fleet, classify} {
			want, advanced := int(turn)%len(cands), int(turn)+1
			if pol != RoundRobin {
				want, advanced = 0, int(turn)
				for j, r := range cands {
					if key(r) < key(cands[want]) {
						want = j
					}
				}
			}
			cur := int(turn)
			if got := Pick(pol, cands, &cur); got != cands[want] || cur != advanced {
				t.Fatalf("%v picked %v (turn %d → %d), want candidate %d of %v", pol, got, turn, cur, want, cands)
			}
		}
		v := Victim(fleet)
		for j, r := range fleet {
			w := fleet[v]
			if r.inflight < w.inflight || r.inflight == w.inflight && (r.load < w.load || r.load == w.load && j < v) {
				t.Fatalf("victim %d %v, but replica %d %v retires first", v, w, j, r)
			}
		}

		if roled && CheckRoles(list, n) != nil {
			return
		}
		m, p, d := leastOf(fleet, RoleMixed), leastOf(fleet, RolePrefill), leastOf(fleet, RoleDecode)
		pair := roled && p != nil && d != nil
		var splitCost int64
		if pair {
			splitCost = p.load + pr.Prefill + pr.Migration + d.load + pr.Decode
			if tie && m != nil && splitCost >= pr.Full {
				for _, r := range fleet {
					if r.role == RoleMixed {
						r.load = splitCost - pr.Full
					}
				}
				m = leastOf(fleet, RoleMixed)
			}
		}
		cur, rr := int(turn), int(turn)
		gp, gd, split := Place(pol, fleet, roled, &cur, pr)
		if gp.role == RoleDecode || gd.role == RolePrefill {
			t.Fatalf("prefill on a %v replica, decode on a %v replica", gp.role, gd.role)
		}
		switch {
		case !roled:
			if want := Pick(pol, fleet, &rr); split || gp != want || gd != want || cur != rr {
				t.Fatalf("untagged fleet placed %v → %v (split %v), policy picks %v", gp, gd, split, want)
			}
		case !split:
			if gp != m || gd != m {
				t.Fatalf("whole session on %v → %v, the least-loaded mixed replica is %v", gp, gd, m)
			}
			if pair && m.load+pr.Full > splitCost {
				t.Fatalf("kept on mixed at %d, the split costs %d", m.load+pr.Full, splitCost)
			}
		default:
			if !pair || gp != p || gd != d {
				t.Fatalf("split onto %v → %v, the least-loaded pair is %v → %v", gp, gd, p, d)
			}
			if m != nil && m.load+pr.Full <= splitCost {
				t.Fatalf("split at %d, mixed costs %d (a tie goes to mixed)", splitCost, m.load+pr.Full)
			}
		}
	})
}
