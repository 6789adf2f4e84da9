package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"
)

// reqKind is the endpoint a request goes to.
type reqKind uint8

const (
	kindClassify reqKind = iota // POST /v1/classify
	kindGenerate                // POST /v1/generate, stream:true
)

func (k reqKind) path() string {
	if k == kindGenerate {
		return "/v1/generate"
	}
	return "/v1/classify"
}

// request is one generated input: the JSON body exactly as it is sent,
// plus what the harness needs to time and check the reply. The system
// under test sees only Body.
type request struct {
	Kind     reqKind
	Body     []byte
	Text     string
	MaxNew   int // generate only
	Question int // fleet-faq generate: index of the fixed question, else -1
}

// latency limits the paced rates were fixed against (see README).
const (
	classifyLimit = 250 * time.Millisecond // due → last byte
	ttftLimit     = 250 * time.Millisecond // due → first token chunk
	tokenGapLimit = 50 * time.Millisecond  // mean gap between token chunks
)

// buildSpec is what differs between the systems the workloads run on;
// everything else is fixed (system.go).
type buildSpec struct {
	FP16     bool
	Replicas int // 1 = single Server, >1 = Router with token-cost routing
}

// workload is one row of the workload table. PacedRate is a constant fixed
// at about 30 % of the seed's measured saturation throughput (README, "How
// the paced rates and limits were fixed"); the program never recalibrates it.
type workload struct {
	Name      string
	Why       string
	Traffic   string // generator stream: workloads with equal Traffic get byte-identical requests
	Build     buildSpec
	PacedRate float64 // requests per second of reference time, open loop
	BlockLen  int     // requests per stratified block
	// block draws the next stratified block of requests: the seed decides
	// contents and order, the block fixes the mix (how many long requests,
	// which token budgets), so two seeds offer the same amount of work.
	block func(*rand.Rand, *trafficState) []request
}

// trafficState carries what a traffic generator keeps between blocks.
type trafficState struct {
	questions []string   // fleet-faq: the fixed questions
	zipf      *rand.Zipf // fleet-faq: popularity over questions
}

var workloads = []workload{
	{
		Name:    "classify-varlen",
		Why:     "90% short + 10% long classify requests (the paper's variable-length case), so GEMMs, kernels and DP batch quality dominate",
		Traffic: "classify-varlen", Build: buildSpec{Replicas: 1}, PacedRate: 28, BlockLen: 20,
		block: func(r *rand.Rand, _ *trafficState) []request { return classifyBlock(r, 18, 2) },
	},
	{
		Name:    "generate-unshared",
		Why:     "streaming generation over distinct prompts with paged fp32 KV, so decode steps and KV appends dominate and the prefix cache is bypassed",
		Traffic: "generate", Build: buildSpec{Replicas: 1}, PacedRate: 12, BlockLen: maxNew - minNew + 1,
		block: unsharedGenerateBlock,
	},
	{
		Name:    "generate-fp16",
		Why:     "byte-identical traffic to generate-unshared on the binary16 runtime, so the pair isolates precision",
		Traffic: "generate", Build: buildSpec{FP16: true, Replicas: 1}, PacedRate: 12, BlockLen: maxNew - minNew + 1,
		block: unsharedGenerateBlock,
	},
	{
		Name:    "fleet-faq",
		Why:     "two routed replicas, 70% classify + 30% Zipf-repeated generate prompts, so routing, kind interference and prefix-cache sharing are used",
		Traffic: "fleet-faq", Build: buildSpec{Replicas: 2}, PacedRate: 27, BlockLen: 50,
		block: faqBlock,
	},
}

// faqQuestions is the size of fleet-faq's fixed question set; each replica's
// prefix cache holds 64 entries, so the set does not fit in one cache.
const faqQuestions = 200

// Token budgets of generate requests: max_new_tokens covers [8,32] evenly.
const minNew, maxNew = 8, 32

// classifyBlock draws short requests of U[4,24] tokens and long ones of
// U[192,256] (the paper's variable-length case, scaled), shuffled.
func classifyBlock(r *rand.Rand, short, long int) []request {
	block := make([]request, 0, short+long)
	for i := 0; i < short; i++ {
		block = append(block, classifyReq(r, uniform(r, 4, 24)))
	}
	for i := 0; i < long; i++ {
		block = append(block, classifyReq(r, uniform(r, 192, 256)))
	}
	r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	return block
}

// unsharedGenerateBlock draws one streaming generation per token budget in
// [8,32], each over a fresh random prompt of U[16,64] tokens, shuffled.
func unsharedGenerateBlock(r *rand.Rand, _ *trafficState) []request {
	block := make([]request, 0, maxNew-minNew+1)
	for n := minNew; n <= maxNew; n++ {
		block = append(block, generateReq(randomText(r, uniform(r, 16, 64)), n, -1))
	}
	r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	return block
}

// faqBlock draws fleet-faq's mix per 50 requests: 35 classify at the
// variable-length mix (31 short, 4 long: 8 % of all requests, so that p95
// falls inside the long requests and not on their edge) and 15 streaming
// generations whose prompt is a Zipf(1.1)-popular fixed question, shuffled.
func faqBlock(r *rand.Rand, st *trafficState) []request {
	if st.questions == nil {
		// The fixed questions come first out of the stream, so they are the
		// same for every phase list of one seed.
		st.questions = make([]string, faqQuestions)
		for i := range st.questions {
			st.questions[i] = randomText(r, uniform(r, 16, 64))
		}
		st.zipf = rand.NewZipf(r, 1.1, 1, faqQuestions-1)
	}
	const generates = 15
	block := classifyBlock(r, 31, 4)
	for i := 0; i < generates; i++ {
		q := int(st.zipf.Uint64())
		budget := minNew + i*(maxNew-minNew+1)/generates
		block = append(block, generateReq(st.questions[q], budget, q))
	}
	r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	return block
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func uniform(r *rand.Rand, lo, hi int) int { return lo + r.Intn(hi-lo+1) }

// randomText returns n bytes that need no JSON escaping; the server's
// byte-level tokenizer turns them into exactly n tokens.
func randomText(r *rand.Rand, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

func classifyReq(r *rand.Rand, n int) request {
	text := randomText(r, n)
	return request{Kind: kindClassify, Text: text, Question: -1,
		Body: mustJSON(map[string]any{"text": text})}
}

func generateReq(text string, maxNew, question int) request {
	return request{Kind: kindGenerate, Text: text, MaxNew: maxNew, Question: question,
		Body: mustJSON(map[string]any{"text": text, "max_new_tokens": maxNew, "stream": true})}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings, ints and bools always marshal
	}
	return b
}

// setUps is how many set-ups a run times; setup_s is their median.
const setUps = 3

// phases are the wall-clock lengths of one run's parts, all derived from
// -seconds: a short discarded warm-up (chunk growth, lazy set-up), an
// open-loop paced phase and a closed-loop saturation phase.
type phases struct {
	Warm  time.Duration
	Paced time.Duration
	Sat   time.Duration
}

func phasesFor(seconds float64) phases {
	d := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	return phases{Warm: d(0.08), Paced: d(0.72), Sat: d(0.20)}
}

// scheduleSlack is how much longer than its wall-clock length an open-loop
// schedule is drawn: due times are reference time, which runs ahead of the
// wall clock on a machine faster than the reference one.
const scheduleSlack = 1.5

// traffic is everything one run sends, generated up front from the seed.
type traffic struct {
	Warm   segment   // open loop at the paced rate, discarded
	Paced  segment   // open loop
	Sat    []request // closed loop, satClients clients pull from this list
	SHA256 string    // over every body and due time above
}

// satClients is the closed-loop client count of the saturation phase.
const satClients = 8

// generate builds the run's traffic. The random stream depends only on the
// seed and the workload's Traffic name, so generate-fp16 receives exactly
// what generate-unshared does.
func (w workload) generate(seed int64, ph phases) traffic {
	h := fnv.New64a()
	h.Write([]byte(w.Traffic))
	r := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	st := &trafficState{}

	var t traffic
	t.Warm = w.arrivals(r, st, ph.Warm)
	t.Paced = w.arrivals(r, st, ph.Paced)
	// Saturation throughput is three to four times the paced rate; eight
	// times leaves room for a faster system without the clients running dry.
	nSat := int(8*w.PacedRate*ph.Sat.Seconds()) + satClients
	for len(t.Sat) < nSat {
		t.Sat = append(t.Sat, w.block(r, st)...)
	}

	sum := sha256.New()
	hashList := func(reqs []request, due []time.Duration) {
		for i, q := range reqs {
			sum.Write([]byte(q.Kind.path()))
			sum.Write(q.Body)
			if due != nil {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(due[i]))
				sum.Write(b[:])
			}
		}
	}
	hashList(t.Warm.reqs, t.Warm.due)
	hashList(t.Paced.reqs, t.Paced.due)
	hashList(t.Sat, nil)
	t.SHA256 = hex.EncodeToString(sum.Sum(nil))
	return t
}

// blockSpan is how long one block takes to arrive at the paced rate.
func (w workload) blockSpan() time.Duration {
	return time.Duration(float64(w.BlockLen) / w.PacedRate * float64(time.Second))
}

// arrivals draws an open-loop segment of wall-clock length wall. Each block
// of n requests arrives over its own n/rate seconds at independent uniform
// times — a Poisson process conditioned on its count — so arrivals are
// bursty the way independent users are, while every seed offers the same
// rate.
func (w workload) arrivals(r *rand.Rand, st *trafficState, wall time.Duration) segment {
	seg := segment{wall: wall}
	d := time.Duration(scheduleSlack * float64(wall))
	span := w.blockSpan()
	for from := time.Duration(0); from < d; from += span {
		block := w.block(r, st)
		if len(block) != w.BlockLen {
			panic(fmt.Sprintf("turbo-ledger: %s drew a block of %d, table says %d", w.Name, len(block), w.BlockLen)) // a bug in the table
		}
		at := make([]time.Duration, len(block))
		for i := range at {
			at[i] = from + time.Duration(r.Int63n(int64(span)))
		}
		sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
		seg.reqs = append(seg.reqs, block...)
		seg.due = append(seg.due, at...)
	}
	return seg
}
