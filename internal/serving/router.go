package serving

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
)

// BalancePolicy selects how the upper-level load balancer (§5: "an upper-
// level load balancer as the one in Nexus") spreads requests over servers.
type BalancePolicy int

const (
	// RoundRobin cycles through servers regardless of load.
	RoundRobin BalancePolicy = iota
	// LeastQueue sends each request to the server with the shortest queue.
	LeastQueue
	// TokenCostRouting sends each request to the server with the least
	// outstanding PRICED work (a sched.TokenCost over prompt tokens
	// plus decode budget), so long prompts spread by the device time they
	// will claim instead of counting one queue slot like everything else.
	TokenCostRouting
)

// String returns the policy name.
func (p BalancePolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastQueue:
		return "least-queue"
	case TokenCostRouting:
		return "token-cost"
	}
	return fmt.Sprintf("BalancePolicy(%d)", int(p))
}

// balancePolicies lists every policy in wire order — the single source
// ParseBalancePolicy matches against and enumerates in its error message.
var balancePolicies = []BalancePolicy{RoundRobin, LeastQueue, TokenCostRouting}

// ParseBalancePolicy maps a policy's wire name ("round-robin",
// "least-queue", "token-cost") back to the constant — the -balance flag
// parser. The error for an unknown name enumerates the valid wire names.
func ParseBalancePolicy(s string) (BalancePolicy, error) {
	for _, p := range balancePolicies {
		if p.String() == s {
			return p, nil
		}
	}
	names := make([]string, len(balancePolicies))
	for i, p := range balancePolicies {
		names[i] = p.String()
	}
	return 0, fmt.Errorf("serving: unknown balance policy %q (want one of: %s)", s, strings.Join(names, ", "))
}

// Router is the multi-replica serving runtime: the real version of the
// "upper-level load balancer as the one in Nexus" the paper assumes above
// its single-GPU servers (§5), and the layer the serving surveys place
// directly above iteration-level batching. It owns N independent replicas
// — each a full Server with its own engines, allocator device, admission
// queue, and dispatcher pair — behind the SAME front door a single server
// exposes: /v1/classify, /v1/generate, and /v1/stats (now aggregated, with
// a per-replica breakdown).
//
// Every admitted request is routed by the configured BalancePolicy. The
// token-cost policy prices each request with a sched.TokenCost
// (prompt prefill plus the decode budget the continuous scheduler would
// reserve) and charges the chosen replica until the request resolves, so
// a replica chewing on long prompts stops attracting traffic even when
// its request COUNT is low — the failure mode of least-queue under
// short-skewed length distributions.
//
// Every PR-4 lifecycle invariant survives unchanged because each replica
// IS a PR-4 server: backpressure 429s (with the load-derived Retry-After)
// come from the chosen replica's bounded queue, deadlines and client
// disconnects are enforced by its dispatchers, and batched==solo
// bit-identity holds per replica since replicas share nothing.
type Router struct {
	replicas []*replica // guarded by setMu (copy-on-write: readers hold RLock across pick+charge)
	policy   BalancePolicy
	cost     *sched.TokenCost
	rr       atomic.Int64 // round-robin cursor

	// Role machinery (nil/empty without WithReplicaRoles): the candidate
	// sets by role, between which planGenerate places each generation.
	rolesSet bool
	prefills []*replica // RolePrefill replicas
	decodes  []*replica // RoleDecode replicas
	mixed    []*replica // RoleMixed replicas

	// pickMu serializes load-reading pick + charge for the load-aware
	// policies: a burst of concurrent arrivals would otherwise all read the
	// same gauges before any charge lands and pile onto one replica —
	// routing decisions must observe each other. Round-robin's atomic
	// cursor needs no lock, and the charge itself stays atomic so release
	// never blocks on routing.
	pickMu sync.Mutex

	// setMu guards the replica SET against the elastic operations. Every
	// pick+charge holds the read side, so RemoveReplica's write lock is a
	// barrier: once it swaps the slice, no in-progress pick can still
	// charge the victim, and any charge already landed is visible in the
	// victim's inflight gauge — which RemoveReplica then waits to zero
	// before draining. Mutation is copy-on-write.
	setMu sync.RWMutex
	// retired accumulates the final counter snapshots of removed replicas
	// so the aggregated stats stay monotone across scale-downs — a served
	// job never disappears from /v1/stats because its replica retired.
	// guarded by setMu
	retired []statsResponse

	// slo, when set, is the shared deadline-miss budget controller: every
	// replica's dispatchers record misses into it, and THIS front door
	// sheds exhausted classes at admission.
	slo         *sloController
	jobsShedSLO atomic.Int64

	scaleUps   atomic.Int64 // replicas ever attached via AddReplica
	scaleDowns atomic.Int64 // replicas ever retired via RemoveReplica
}

// replica wraps one Server with the router-side load accounting the
// balancing policies read.
type replica struct {
	srv  *Server
	role ReplicaRole

	routed   atomic.Int64 // jobs ever routed here
	inflight atomic.Int64 // routed jobs not yet resolved
	loadNS   atomic.Int64 // priced cost (ns) of unresolved jobs

	// Hand-off accounting. prefillQ gauges generations routed here for
	// prefill and not yet handed off; the migration counters move only when
	// an import actually completes on the decode side (the onImported hook),
	// so out-bytes on one replica always equal in-bytes on another.
	prefillQ         atomic.Int64
	migrationsIn     atomic.Int64
	migrationsOut    atomic.Int64
	migratedInBytes  atomic.Int64
	migratedOutBytes atomic.Int64
}

// RouterConfig configures NewRouter.
type RouterConfig struct {
	// Policy selects how jobs spread over replicas (default RoundRobin).
	Policy BalancePolicy
	// Cost prices a request for the TokenCostRouting policy, and each
	// phase of every generation under Roles whatever the policy: nil
	// defaults to sched.TokenCounts (one unit per prompt or budgeted
	// decode token). A warm-up-fitted sched.TokenCost sharpens the
	// estimate from token counts to device time.
	Cost *sched.TokenCost
	// Roles tags each replica prefill/decode/mixed, one entry per server
	// in order (empty = all mixed, the pre-disaggregation behaviour). With
	// roles set, classify goes to non-decode replicas under the configured
	// policy, and every generation is routed by PRICED load regardless of
	// policy: the cheaper of the best mixed replica (whole session) and
	// the best prefill+decode pair (phase costs plus the migration price),
	// so short prompts stay on a mixed replica when hand-off would cost
	// more than it saves.
	Roles []ReplicaRole

	// SLOBudget enables per-priority-class overload control across the
	// fleet: once a class accumulates this many deadline misses inside
	// SLOWindow (summed over every replica), new jobs of that class are
	// shed with 504 at the router's front door until enough misses age
	// out. Zero disables shedding.
	SLOBudget int
	// SLOWindow is the sliding window the miss budget is counted over
	// (default DefaultSLOWindow).
	SLOWindow time.Duration
}

// NewRouter builds the multi-replica front door over already-started
// servers. The servers must be configured identically (same model weights
// and serving knobs) — the router spreads load, it does not dispatch by
// capability — and ownership transfers to the router: stop them through
// Router.Shutdown or Router.Close.
func NewRouter(cfg RouterConfig, servers ...*Server) (*Router, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("serving: router needs at least one replica")
	}
	for i, s := range servers {
		if s == nil {
			return nil, fmt.Errorf("serving: replica %d is nil", i)
		}
	}
	cost := cfg.Cost
	if cost == nil {
		cost = sched.TokenCounts
	}
	if err := CheckRoles(cfg.Roles, len(servers)); err != nil {
		return nil, err
	}
	rt := &Router{policy: cfg.Policy, cost: cost, rolesSet: len(cfg.Roles) > 0}
	for i, s := range servers {
		rep := &replica{srv: s}
		if rt.rolesSet {
			rep.role = cfg.Roles[i]
		}
		//turbovet:allow guardedby -- construction: rt is not yet published, no concurrent reader exists
		rt.replicas = append(rt.replicas, rep)
		switch rep.role {
		case RolePrefill:
			rt.prefills = append(rt.prefills, rep)
		case RoleDecode:
			rt.decodes = append(rt.decodes, rep)
		default:
			rt.mixed = append(rt.mixed, rep)
		}
	}
	if rt.rolesSet && len(rt.mixed) == 0 && (len(rt.prefills) == 0 || len(rt.decodes) == 0) {
		return nil, fmt.Errorf("serving: roles %v can serve no generation end-to-end (want a mixed replica, or at least one prefill and one decode)", cfg.Roles)
	}
	if cfg.SLOBudget > 0 {
		rt.slo = newSLOController(cfg.SLOBudget, cfg.SLOWindow)
		for _, s := range servers {
			s.setSLORecorder(rt.slo)
		}
	}
	return rt, nil
}

// Replicas reports the count of replicas currently receiving traffic.
func (rt *Router) Replicas() int {
	rt.setMu.RLock()
	defer rt.setMu.RUnlock()
	return len(rt.replicas)
}

// AddReplica attaches an already-started Server as a new traffic-bearing
// replica — the autoscaler's scale-up action. The server must be
// configured identically to the existing replicas; ownership transfers to
// the router. Routers with replica roles are static: the disaggregated
// candidate sets are built at construction, so elastic operations refuse.
func (rt *Router) AddReplica(srv *Server) error {
	if srv == nil {
		return fmt.Errorf("serving: AddReplica: nil server")
	}
	rt.setMu.Lock()
	defer rt.setMu.Unlock()
	if rt.rolesSet {
		return fmt.Errorf("serving: AddReplica: router with replica roles is not elastic")
	}
	if rt.slo != nil {
		srv.setSLORecorder(rt.slo)
	}
	rep := &replica{srv: srv}
	next := make([]*replica, len(rt.replicas), len(rt.replicas)+1)
	copy(next, rt.replicas)
	rt.replicas = append(next, rep)
	rt.mixed = rt.replicas
	rt.scaleUps.Add(1)
	return nil
}

// RemoveReplica retires the least-loaded replica — the autoscaler's
// scale-down action — and returns its drained Server (closed; exposed so
// callers can verify its allocator gauges reached zero). Drain-then-retire,
// in three barriers, so no job is ever lost or routed to a retiring
// replica:
//
//  1. the replica set is swapped under the write lock, which excludes every
//     in-progress pick — after the swap no new request can charge the
//     victim;
//  2. the router waits for the victim's inflight gauge to drain: charges
//     landed before the swap belong to requests whose handlers may not
//     have SUBMITTED yet, and shutting down under them would 503 work the
//     router already accepted;
//  3. the victim drains exactly like PR-5 Shutdown — admission closed,
//     everything admitted served, dispatchers joined — and its final
//     counters fold into the retired aggregate so /v1/stats stays
//     monotone.
//
// If ctx expires mid-drain the victim's stragglers are aborted (Shutdown
// semantics) and ctx.Err() is returned alongside the server.
func (rt *Router) RemoveReplica(ctx context.Context) (*Server, error) {
	rt.setMu.Lock()
	if rt.rolesSet {
		rt.setMu.Unlock()
		return nil, fmt.Errorf("serving: RemoveReplica: router with replica roles is not elastic")
	}
	if len(rt.replicas) <= 1 {
		rt.setMu.Unlock()
		return nil, fmt.Errorf("serving: RemoveReplica: cannot remove the last replica")
	}
	// Least-loaded victim: fewest unresolved jobs, ties on priced load.
	vi := 0
	for i, r := range rt.replicas[1:] {
		ri, vi0 := r.inflight.Load(), rt.replicas[vi].inflight.Load()
		if ri < vi0 || (ri == vi0 && r.loadNS.Load() < rt.replicas[vi].loadNS.Load()) {
			vi = i + 1
		}
	}
	victim := rt.replicas[vi]
	next := make([]*replica, 0, len(rt.replicas)-1)
	next = append(next, rt.replicas[:vi]...)
	next = append(next, rt.replicas[vi+1:]...)
	rt.replicas = next
	rt.mixed = rt.replicas
	rt.setMu.Unlock()

	// Barrier 2: requests charged before the swap finish their hand-off to
	// the victim (and resolve) before the drain starts.
	for victim.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			// Give up waiting politely; Shutdown below aborts stragglers.
		case <-time.After(500 * time.Microsecond):
			continue
		}
		break
	}

	err := victim.srv.Shutdown(ctx)

	final := victim.srv.statsSnapshot()
	// Rates are instantaneous, not counters: a retired replica drains
	// nothing, so its last-measured rate must not haunt the fleet total.
	final.DrainRate, final.DrainMeasured = 0, false
	rt.setMu.Lock()
	rt.retired = append(rt.retired, final)
	rt.setMu.Unlock()
	rt.scaleDowns.Add(1)
	return victim.srv, err
}

// Policy reports the balancing policy.
func (rt *Router) Policy() BalancePolicy { return rt.policy }

// route picks the replica for a request of the given footprint and charges
// it; the returned release function refunds the charge when the request
// resolves (response written, stream closed, or error returned — however
// it ends). promptTokens and newTokens size the token-cost price.
func (rt *Router) route(promptTokens, newTokens int) (*replica, func()) {
	rt.setMu.RLock()
	defer rt.setMu.RUnlock()
	return rt.routeAmong(rt.replicas, int64(rt.cost.RequestCost(promptTokens, newTokens)))
}

// routeClassify routes one classify-shaped request, with the candidate set
// and the pick+charge under one read lock so a concurrent RemoveReplica
// can neither hand out a stale set nor miss a landed charge.
func (rt *Router) routeClassify(price int64) (*replica, func()) {
	rt.setMu.RLock()
	defer rt.setMu.RUnlock()
	return rt.routeAmong(rt.classifyCandidatesLocked(), price)
}

// anyServer returns one live replica's server — the config oracle for
// knobs every identically-configured replica shares (decode budget
// defaults, KV bytes per token). The set is never empty.
func (rt *Router) anyServer() *Server {
	rt.setMu.RLock()
	defer rt.setMu.RUnlock()
	return rt.replicas[0].srv
}

// routeAmong applies the balancing policy over an explicit candidate set —
// all replicas for a role-less router, the non-decode replicas for
// classify under roles — and charges the pick with price. Callers hold
// setMu.RLock (pick+charge must be atomic with respect to the elastic
// operations).
func (rt *Router) routeAmong(cands []*replica, price int64) (*replica, func()) {
	var rep *replica
	switch rt.policy {
	case LeastQueue, TokenCostRouting:
		// Pick and charge under one lock so concurrent arrivals observe
		// each other's placements — a burst would otherwise read identical
		// gauges and pile onto one replica.
		rt.pickMu.Lock()
		rep = cands[0]
		if rt.policy == LeastQueue {
			// Fewest unresolved jobs: queued + executing on that replica,
			// the live analogue of the simulator's shortest-message-queue.
			best := rep.inflight.Load()
			for _, r := range cands[1:] {
				if n := r.inflight.Load(); n < best {
					rep, best = r, n
				}
			}
		} else {
			best := rep.loadNS.Load()
			for _, r := range cands[1:] {
				if n := r.loadNS.Load(); n < best {
					rep, best = r, n
				}
			}
		}
		rep.inflight.Add(1)
		rep.loadNS.Add(price)
		rt.pickMu.Unlock()
	default: // RoundRobin
		rep = cands[int(rt.rr.Add(1)-1)%len(cands)]
		rep.inflight.Add(1)
		rep.loadNS.Add(price)
	}
	rep.routed.Add(1)
	return rep, func() {
		rep.inflight.Add(-1)
		rep.loadNS.Add(-price)
	}
}

// classifyCandidatesLocked is where classify (and other prefill-shaped whole
// requests) may run: everything except decode-only replicas once roles are
// set, all replicas otherwise.
func (rt *Router) classifyCandidatesLocked() []*replica {
	if !rt.rolesSet || len(rt.decodes) == len(rt.replicas) {
		return rt.replicas
	}
	cands := make([]*replica, 0, len(rt.replicas))
	for _, r := range rt.replicas {
		if r.role != RoleDecode {
			cands = append(cands, r)
		}
	}
	return cands
}

// genPlan is one generation's routing decision under roles: either a mixed
// replica serving the whole session, or a prefill+decode pair with the
// hand-off in between. Whichever side is chosen, its release functions
// refund the routing charges when the phase resolves.
type genPlan struct {
	mixed        *replica
	releaseMixed func()

	prefill, decode               *replica
	releasePrefill, releaseDecode func()
	estimatedBytes                int64
}

// handoffBytesEstimate predicts the KV payload of migrating a session
// right after prefill: at that boundary the self-KV is empty and the
// cross-attention memory — promptTokens rows across every layer's K and V
// — is the whole transfer, which is exactly promptTokens × KVBytesPerToken.
func (rt *Router) handoffBytesEstimate(promptTokens int) int64 {
	srv := rt.anyServer()
	if srv.gen == nil {
		return 0
	}
	return int64(promptTokens) * srv.gen.engine.KVBytesPerToken()
}

// migrationPrice estimates moving bytes of KV between replicas: a fixed
// per-hand-off setup (RPC, allocator acquire on the destination) plus an
// NVLink-class wire cost of 0.05 ns/byte (≈ 20 GB/s). The setup is
// deliberately non-zero so tiny prompts don't migrate for free.
func migrationPrice(bytes int64) time.Duration {
	const (
		setup   = 100 * time.Microsecond
		perByte = 0.05
	)
	return setup + time.Duration(perByte*float64(bytes))
}

// planGenerate routes one generation under roles. All loads are read and
// all charges landed under pickMu, so concurrent plans observe each other.
// Generations under roles always route by priced load — the disaggregation
// decision is a cost comparison, whatever policy classify uses:
//
//	min( load(P) + prefill(p) + migration(bytes) + load(D) + decode(p,n),
//	     load(M) + full(p,n) )
//
// with ties going to the mixed replica (no hand-off when it isn't
// strictly cheaper).
func (rt *Router) planGenerate(promptTokens, budget int) genPlan {
	prefillPrice := int64(rt.cost.PrefillCost(promptTokens))
	decodePrice := int64(rt.cost.DecodeCost(promptTokens, budget))
	fullPrice := int64(rt.cost.RequestCost(promptTokens, budget))
	migBytes := rt.handoffBytesEstimate(promptTokens)
	migPrice := int64(migrationPrice(migBytes))

	rt.setMu.RLock()
	defer rt.setMu.RUnlock()
	rt.pickMu.Lock()
	defer rt.pickMu.Unlock()
	minLoad := func(cands []*replica) *replica {
		best := cands[0]
		bl := best.loadNS.Load()
		for _, r := range cands[1:] {
			if n := r.loadNS.Load(); n < bl {
				best, bl = r, n
			}
		}
		return best
	}
	var m, p, d *replica
	if len(rt.mixed) > 0 {
		m = minLoad(rt.mixed)
	}
	if len(rt.prefills) > 0 && len(rt.decodes) > 0 {
		p, d = minLoad(rt.prefills), minLoad(rt.decodes)
	}
	useMixed := p == nil
	if m != nil && p != nil {
		useMixed = m.loadNS.Load()+fullPrice <= p.loadNS.Load()+prefillPrice+migPrice+d.loadNS.Load()+decodePrice
	}
	charge := func(r *replica, price int64) {
		r.inflight.Add(1)
		r.loadNS.Add(price)
		r.routed.Add(1)
	}
	if useMixed {
		charge(m, fullPrice)
		return genPlan{mixed: m, releaseMixed: func() {
			m.inflight.Add(-1)
			m.loadNS.Add(-fullPrice)
		}}
	}
	// The migration price is charged to the decode side: that is where the
	// transferred KV lands and where the charge must suppress further
	// routing until the import resolves.
	charge(p, prefillPrice)
	p.prefillQ.Add(1)
	dPrice := decodePrice + migPrice
	charge(d, dPrice)
	return genPlan{
		prefill: p,
		decode:  d,
		releasePrefill: func() {
			p.inflight.Add(-1)
			p.loadNS.Add(-prefillPrice)
			p.prefillQ.Add(-1)
		},
		releaseDecode: func() {
			d.inflight.Add(-1)
			d.loadNS.Add(-dPrice)
		},
		estimatedBytes: migBytes,
	}
}

// Handler returns the HTTP mux for the routed service — the same paths a
// single Server serves.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/classify", rt.handleClassify)
	mux.HandleFunc("/v1/generate", rt.handleGenerate)
	mux.HandleFunc("/v1/stats", rt.handleStats)
	return mux
}

// shedSLO refuses the request with 504 when the class's fleet-wide miss
// budget is exhausted — admission control BEFORE any replica is picked or
// charged. The Retry-After derives from the budget window (when enough
// misses age out for the class to reopen), not the queue-drain estimate:
// the queues keep draining while the class stays closed, so a drain-based
// hint would invite retries long before admission actually reopens.
func (rt *Router) shedSLO(w http.ResponseWriter, priority int) bool {
	if rt.slo == nil {
		return false
	}
	retry, shed := rt.slo.shed(priority, time.Now())
	if !shed {
		return false
	}
	rt.jobsShedSLO.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	httpError(w, http.StatusGatewayTimeout, ErrSLOShed.Error())
	return true
}

func (rt *Router) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req classifyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Text == "" {
		httpError(w, http.StatusBadRequest, "body must be {\"text\": ...}")
		return
	}
	if rt.shedSLO(w, req.Priority) {
		return
	}
	// The demo tokenizer is byte-level, so the prompt token count is known
	// before any replica is involved. Under roles, classify — prefill-shaped
	// work — never lands on a decode replica.
	rep, release := rt.routeClassify(int64(rt.cost.RequestCost(len(req.Text), 0)))
	defer release()
	rep.srv.serveClassify(w, r, req)
}

func (rt *Router) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req generateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Text == "" {
		httpError(w, http.StatusBadRequest, "body must be {\"text\": ..., \"max_new_tokens\": n, \"stream\": bool}")
		return
	}
	if rt.shedSLO(w, req.Priority) {
		return
	}
	// Price prompt + resolved decode budget (replicas are identical, so
	// any live replica's defaults resolve the budget for all of them).
	budget := rt.anyServer().genBudget(req.MaxNewTokens)
	if !rt.rolesSet || budget == 0 {
		rep, release := rt.route(len(req.Text), budget)
		defer release()
		rep.srv.serveGenerate(w, r, req)
		return
	}

	start := time.Now()
	plan := rt.planGenerate(len(req.Text), budget)
	if plan.mixed != nil {
		defer plan.releaseMixed()
		plan.mixed.srv.serveGenerate(w, r, req)
		return
	}

	// Disaggregated path: prefill on P, hand the exported KV to D, stream
	// decode from there. The prefill charge is refunded the moment P holds
	// nothing; the decode+migration charge stays until the stream resolves.
	snap, err := plan.prefill.srv.runPrefill(r.Context(), req, start)
	plan.releasePrefill()
	if err != nil {
		plan.releaseDecode()
		plan.prefill.srv.writeJobError(w, err)
		return
	}
	defer plan.releaseDecode()
	p, d := plan.prefill, plan.decode
	onImported := func() {
		// Fires from D's dispatcher once the import actually landed — the
		// only place migration counters move, so out-bytes on P always
		// reconcile with in-bytes on D and with the device gauges the
		// import charged.
		bytes := snap.Bytes()
		p.migrationsOut.Add(1)
		p.migratedOutBytes.Add(bytes)
		d.migrationsIn.Add(1)
		d.migratedInBytes.Add(bytes)
	}
	d.srv.serveHandoff(w, r, req, snap, start, onImported)
}

// ReplicaStats is one replica's row in the aggregated stats reply: the
// router-side routing gauges plus the replica's full single-server
// counters inlined.
type ReplicaStats struct {
	Replica    int    `json:"replica"`
	Role       string `json:"role"`
	JobsRouted int64  `json:"jobs_routed"`
	InFlight   int64  `json:"in_flight"`
	LoadNS     int64  `json:"load_ns"`
	// Hand-off accounting: migrations in/out count completed KV imports
	// (never attempts), with their byte totals; PrefillQueueDepth gauges
	// generations routed here for prefill whose hand-off hasn't resolved.
	KVMigrationsIn     int64 `json:"kv_migrations_in"`
	KVMigrationsOut    int64 `json:"kv_migrations_out"`
	KVMigratedInBytes  int64 `json:"kv_migrated_in_bytes"`
	KVMigratedOutBytes int64 `json:"kv_migrated_out_bytes"`
	PrefillQueueDepth  int64 `json:"prefill_queue_depth"`
	statsResponse
}

// RouterStats is the GET /v1/stats reply of a routed service: the
// aggregate over all replicas in the same shape a single server reports
// (sums for counters, max for the peak gauge, recomputed waste ratio),
// plus the per-replica breakdown.
type RouterStats struct {
	Policy   string `json:"policy"`
	Replicas int    `json:"replica_count"`
	// Elasticity accounting: replicas currently receiving traffic, replicas
	// retired so far (their final counters stay folded into the aggregate),
	// and the cumulative AddReplica/RemoveReplica actions.
	ReplicasActive  int   `json:"replicas_active"`
	ReplicasRetired int   `json:"replicas_retired"`
	ScaleUps        int64 `json:"scale_ups"`
	ScaleDowns      int64 `json:"scale_downs"`
	// Aggregate hand-off accounting: KVMigrations/KVMigratedBytes sum the
	// completed imports across replicas (each migration counted once, on
	// its import), PrefillQueueDepth the instantaneous pre-hand-off gauge.
	KVMigrations      int64 `json:"kv_migrations"`
	KVMigratedBytes   int64 `json:"kv_migrated_bytes"`
	PrefillQueueDepth int64 `json:"prefill_queue_depth"`
	statsResponse
	PerReplica []ReplicaStats `json:"per_replica"`
}

// aggregateStats folds per-replica snapshots into the single-server shape,
// each field by its agg tag: counters, queue depth and the KV/reservation
// gauges add (instantaneous totals across devices), as do the drain rates
// (jobs/sec add across independent queues); GenPeakBatch takes the max, since
// batches never span replicas; flags are or-ed (the fleet's drain rate is
// measured once any replica's meter is); PaddingWaste is recomputed from the
// summed token counters. /v1/stats is polled at phase boundaries, never on
// the request path, so the fold can afford reflection.
func aggregateStats(parts []statsResponse) statsResponse {
	var agg statsResponse
	out := reflect.ValueOf(&agg).Elem()
	for j := range parts {
		in := reflect.ValueOf(&parts[j]).Elem()
		for i := 0; i < out.NumField(); i++ {
			a, b := out.Field(i), in.Field(i)
			switch out.Type().Field(i).Tag.Get("agg") {
			case "sum":
				if a.Kind() == reflect.Float64 {
					a.SetFloat(a.Float() + b.Float())
				} else {
					a.SetInt(a.Int() + b.Int())
				}
			case "max":
				if b.Int() > a.Int() {
					a.SetInt(b.Int())
				}
			case "or":
				a.SetBool(a.Bool() || b.Bool())
			}
		}
	}
	if t := agg.TokensProcessed + agg.TokensPadded; t > 0 {
		agg.PaddingWaste = float64(agg.TokensPadded) / float64(t)
	}
	return agg
}

// Stats returns the aggregated router statistics (the /v1/stats body).
// Retired replicas' final counters stay in the aggregate (and only there):
// work a replica served before scale-down never disappears from the fleet
// totals, which is what lets tests reconcile Σ served across an elastic
// run exactly.
func (rt *Router) Stats() RouterStats {
	rt.setMu.RLock()
	replicas := append([]*replica(nil), rt.replicas...)
	retired := append([]statsResponse(nil), rt.retired...)
	rt.setMu.RUnlock()

	parts := make([]statsResponse, len(replicas), len(replicas)+len(retired))
	resp := RouterStats{
		Policy:          rt.policy.String(),
		Replicas:        len(replicas),
		ReplicasActive:  len(replicas),
		ReplicasRetired: len(retired),
		ScaleUps:        rt.scaleUps.Load(),
		ScaleDowns:      rt.scaleDowns.Load(),
		PerReplica:      make([]ReplicaStats, len(replicas)),
	}
	for i, rep := range replicas {
		parts[i] = rep.srv.statsSnapshot()
		resp.PerReplica[i] = ReplicaStats{
			Replica:            i,
			Role:               rep.role.String(),
			JobsRouted:         rep.routed.Load(),
			InFlight:           rep.inflight.Load(),
			LoadNS:             rep.loadNS.Load(),
			KVMigrationsIn:     rep.migrationsIn.Load(),
			KVMigrationsOut:    rep.migrationsOut.Load(),
			KVMigratedInBytes:  rep.migratedInBytes.Load(),
			KVMigratedOutBytes: rep.migratedOutBytes.Load(),
			PrefillQueueDepth:  rep.prefillQ.Load(),
			statsResponse:      parts[i],
		}
		resp.KVMigrations += rep.migrationsIn.Load()
		resp.KVMigratedBytes += rep.migratedInBytes.Load()
		resp.PrefillQueueDepth += rep.prefillQ.Load()
	}
	parts = append(parts, retired...)
	resp.statsResponse = aggregateStats(parts)
	// Fleet-level SLO sheds happen at THIS front door, before any replica
	// is involved, so they live on the router and add to the aggregate.
	resp.JobsShedSLO += rt.jobsShedSLO.Load()
	return resp
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, rt.Stats())
}

// Shutdown gracefully drains every replica concurrently: each stops
// admission immediately (so no replica keeps 200-ing while another is
// half-down), serves everything already admitted, and joins its
// dispatchers. The first ctx expiry aborts the stragglers, exactly like
// single-server Shutdown; the first non-nil error is returned after ALL
// replicas have stopped.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.setMu.RLock()
	replicas := append([]*replica(nil), rt.replicas...)
	rt.setMu.RUnlock()
	errs := make([]error, len(replicas))
	var wg sync.WaitGroup
	for i, rep := range replicas {
		wg.Add(1)
		go func(i int, rep *replica) {
			defer wg.Done()
			errs[i] = rep.srv.Shutdown(ctx)
		}(i, rep)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close aborts every replica: queued jobs fail, running generations are
// evicted, and all dispatcher goroutines are joined before returning.
func (rt *Router) Close() {
	rt.setMu.RLock()
	replicas := append([]*replica(nil), rt.replicas...)
	rt.setMu.RUnlock()
	var wg sync.WaitGroup
	for _, rep := range replicas {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			rep.srv.Close()
		}(rep)
	}
	wg.Wait()
}
