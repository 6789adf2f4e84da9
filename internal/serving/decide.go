package serving

// The fleet's decisions, as pure functions of the replicas' roles and
// gauges: the live Router makes them under its locks and the fleet
// simulator on its virtual clock, through this one copy.

// Gauged is a replica as the decisions read it: its role, the jobs routed
// to it and not yet resolved (queued plus executing), and their priced cost.
type Gauged interface {
	Role() ReplicaRole
	InFlight() int64
	Load() int64
}

// Pick returns the replica policy sends the next request to among cands
// (never empty): round-robin takes turns, advancing *turn; least-queue takes
// the fewest in flight; token-cost the least priced load. Ties go to the
// lowest index.
func Pick[R Gauged](policy BalancePolicy, cands []R, turn *int) R {
	if policy == RoundRobin {
		*turn++
		return cands[(*turn-1)%len(cands)]
	}
	gauge := func(r R) int64 {
		if policy == LeastQueue {
			return r.InFlight()
		}
		return r.Load()
	}
	best, bv := cands[0], gauge(cands[0])
	for _, r := range cands[1:] {
		if v := gauge(r); v < bv {
			best, bv = r, v
		}
	}
	return best
}

// Victim returns the index of the replica a scale-down retires: the fewest
// in flight, ties on the lower priced load, then the lowest index.
func Victim[R Gauged](replicas []R) int {
	v := 0
	for i, r := range replicas {
		if w := replicas[v]; r.InFlight() < w.InFlight() || r.InFlight() == w.InFlight() && r.Load() < w.Load() {
			v = i
		}
	}
	return v
}

// ClassifyCandidates is where classify and other prefill-shaped whole
// requests may run: the non-decode replicas, or all of them if none is.
// Roles are fixed for a replica set's life, so it is built once per set.
func ClassifyCandidates[R Gauged](replicas []R) []R {
	var cands []R
	for _, r := range replicas {
		if r.Role() != RoleDecode {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 {
		return replicas
	}
	return cands
}

// GenPrices are one generation's routing charges: Full for the whole
// session on one replica; Prefill, Decode and Migration for the two phases
// of a hand-off, the migration charged to the decode side.
type GenPrices struct{ Full, Prefill, Decode, Migration int64 }

// Place decides where one generation runs: prefill on p, decode on d; d is
// p unless split, when the KV hands off from p to d. Without roles the
// whole session goes where policy sends any request. Under roles (which
// must pass CheckRoles) it goes by priced load whatever the policy: the
// least-loaded mixed replica keeps it unless a prefill+decode pair exists
// and the least-loaded one is strictly cheaper,
//
//	min( load(M) + full,  load(P) + prefill + migration + load(D) + decode )
//
// so a hand-off must pay for itself.
func Place[R Gauged](policy BalancePolicy, replicas []R, roles bool, turn *int, pr GenPrices) (p, d R, split bool) {
	if !roles {
		m := Pick(policy, replicas, turn)
		return m, m, false
	}
	least := [...]int{RoleMixed: -1, RolePrefill: -1, RoleDecode: -1} // per role, ties to the lowest index
	for i, r := range replicas {
		if b := &least[r.Role()]; *b < 0 || r.Load() < replicas[*b].Load() {
			*b = i
		}
	}
	mi, pi, di := least[RoleMixed], least[RolePrefill], least[RoleDecode]
	if mi >= 0 && (pi < 0 || di < 0 || replicas[mi].Load()+pr.Full <= replicas[pi].Load()+pr.Prefill+pr.Migration+replicas[di].Load()+pr.Decode) {
		return replicas[mi], replicas[mi], false
	}
	return replicas[pi], replicas[di], true
}
