package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"additivity/internal/service"
	"additivity/internal/workload"
)

// mode is how a workload's clients pace their requests.
type mode int

const (
	// closedLoop: one client sends each request when the previous one
	// completes.
	closedLoop mode = iota
	// lockstep: client i sends request 2k+i to replica i, and step k+1
	// starts only when both copies of step k are done — so twins always
	// arrive at the fleet together.
	lockstep
	// openLoop: requests are sent on a seeded schedule regardless of
	// completions; latency counts from the scheduled send time.
	openLoop
)

// request is one element of a workload's request sequence.
type request struct {
	id      int32 // index into plan.ids
	replica uint8
	// bg marks a fire-and-forget submission (no wait); its result is
	// collected and verified after the timed phase.
	bg bool
	at time.Duration // open loop: due time from the phase start
}

// plan is a workload's generated input, a pure function of the
// workload, the seed and the request count: the distinct job
// identities, the untimed warm-up and the timed sequence.
type plan struct {
	ids    []service.JobRequest
	bodies [][]byte
	warm   []request
	reqs   []request
}

// add appends a normalised identity and returns its index.
func (p *plan) add(req service.JobRequest) int32 {
	if err := req.Normalize(); err != nil {
		panic(fmt.Sprintf("bench: generated an invalid request: %v", err))
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("bench: encode request: %v", err))
	}
	p.ids = append(p.ids, req)
	p.bodies = append(p.bodies, body)
	return int32(len(p.ids) - 1)
}

// foreground counts the timed requests whose latency is measured.
func (p *plan) foreground() int {
	n := 0
	for _, r := range p.reqs {
		if !r.bg {
			n++
		}
	}
	return n
}

// workloadDef is one traffic mix.
type workloadDef struct {
	name string
	why  string
	// listed marks the workloads BENCHMARK.json lists, the ones a change
	// is judged by. fleet-dup and predict-open run in the full suite and
	// with -workload but are not listed: a judged change runs each listed
	// workload 22 times, and five do not fit that time at a run length
	// that keeps their spread well inside the bounds.
	listed bool
	mode   mode
	// replicas daemons serve the workload; cacheDir gives them one
	// shared -cache-dir and peers wires each to the others with -peers.
	replicas int
	cacheDir bool
	peers    bool
	// limit is the latency a request must meet to count toward goodput.
	limit time.Duration
	// full is the request count per timed phase of the full suite;
	// perSecond converts a -seconds budget into a count instead.
	full      int
	perSecond float64
	gen       func(seed int64, n int) *plan
}

// Check identities are sized two ways. The loadgen trace shape (12
// compounds, 34 gather units) keeps payloads and unit-warm work
// comparable with the older BENCH recordings; the small shape (2
// compounds, 6 units) makes a cold check cheap enough that a short
// phase still collects the 1000 samples p99 needs.
const (
	bigCompounds   = 12
	smallCompounds = 2
)

func checkReq(seed int64, compounds int) service.JobRequest {
	return service.JobRequest{Kind: service.KindCheck, Params: service.JobParams{
		Platform: "haswell", Seed: seed, Compounds: compounds, Reps: 3,
	}}
}

func trainReq(seed int64) service.JobRequest {
	return service.JobRequest{Kind: service.KindTrain, Params: service.JobParams{
		Platform: "haswell", Seed: seed, Compounds: 2, Model: "lr",
	}}
}

func predictReq(seed int64, app string, size int) service.JobRequest {
	return service.JobRequest{Kind: service.KindPredict, Params: service.JobParams{
		Platform: "haswell", Seed: seed, Tier: "analytic", App: app, AppSize: size,
	}}
}

// seedBase spreads job seeds so every run seed draws its own identities
// and identities of different roles never collide.
func seedBase(seed int64) int64 { return seed * 1_000_000 }

var workloads = []*workloadDef{
	{
		name:   "warm-hit",
		why:    "repeated pre-warmed identities: only the service fast path and the memo LRU lookup run, and the job registry grows",
		listed: true, mode: closedLoop, replicas: 1,
		limit: 5 * time.Millisecond, full: 100_000, perSecond: 5500,
		gen: genWarmHit,
	},
	{
		name:   "unit-reuse",
		why:    "new tolerance per check: a job-level miss whose gather units all hit, so core decodes cached units and skips gather",
		listed: true, mode: closedLoop, replicas: 1,
		limit: 20 * time.Millisecond, full: 6000, perSecond: 260,
		gen: genUnitReuse,
	},
	{
		name:   "check-cold",
		why:    "never-used seeds on a -cache-dir daemon: machine/pmc gather plus memo miss, lease and disk store, beyond the LRU",
		listed: true, mode: closedLoop, replicas: 1, cacheDir: true,
		limit: 100 * time.Millisecond, full: 1000, perSecond: 110,
		gen: genCheckCold,
	},
	{
		name: "fleet-dup",
		why:  "twin checks sent together to 2 replicas sharing -cache-dir and wired with -peers: leases, disk hits and the peer tier",
		mode: lockstep, replicas: 2, cacheDir: true, peers: true,
		limit: 150 * time.Millisecond, full: 1200, perSecond: 110,
		gen: genFleetDup,
	},
	{
		name: "predict-open",
		why:  "open-loop analytic predicts over a large Zipf working set beside background cold checks: reads beside writes",
		mode: openLoop, replicas: 1, cacheDir: true,
		limit: 10 * time.Millisecond, full: 7500, perSecond: predictRate,
		gen: genPredictOpen,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// genWarmHit: 64 identities (48 checks, 8 trains, 8 predicts), each
// measured once in warm-up, then Zipf(1.2) draws over them. The
// identities are the same for every seed — only the draws differ — so
// runs compare like for like, and every train identity is one whose
// pipeline selects a PMC set. Kinds are interleaved by popularity rank:
// six checks, a train and a predict in every eight ranks.
func genWarmHit(seed int64, n int) *plan {
	p := &plan{}
	for i := 0; i < 64; i++ {
		var req service.JobRequest
		switch i % 8 {
		case 6:
			req = trainReq(100 + int64(i/8))
		case 7:
			req = predictReq(200+int64(i/8), "mkl-dgemm", 2048+512*(i/8))
		default:
			req = checkReq(300+int64(i), bigCompounds)
		}
		p.warm = append(p.warm, request{id: p.add(req)})
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, 63)
	for i := 0; i < n; i++ {
		p.reqs = append(p.reqs, request{id: int32(zipf.Uint64())})
	}
	return p
}

// genUnitReuse: 16 fixed checks measured in warm-up, then n checks each
// on a seeded draw of one of them with a tolerance no other request
// uses.
func genUnitReuse(seed int64, n int) *plan {
	p := &plan{}
	for k := 0; k < 16; k++ {
		p.warm = append(p.warm, request{id: p.add(checkReq(400+int64(k), bigCompounds))})
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		req := checkReq(400+int64(rng.Intn(16)), bigCompounds)
		req.Params.TolerancePct = 1 + float64(i+1)/10_000
		p.reqs = append(p.reqs, request{id: p.add(req)})
	}
	return p
}

// genCheckCold: n small checks on seeds no earlier request used, after
// eight warm-up checks on other seeds.
func genCheckCold(seed int64, n int) *plan {
	p := &plan{}
	base := seedBase(seed)
	for k := 0; k < 8; k++ {
		p.warm = append(p.warm, request{id: p.add(checkReq(base+500+int64(k), smallCompounds))})
	}
	for i := 0; i < n; i++ {
		p.reqs = append(p.reqs, request{id: p.add(checkReq(base+10_000+int64(i), smallCompounds))})
	}
	return p
}

// genFleetDup: n/2 new small checks, each sent as a twin pair, one copy
// to each replica.
func genFleetDup(seed int64, n int) *plan {
	p := &plan{}
	base := seedBase(seed)
	twin := func(set []request, id int32) []request {
		return append(set, request{id: id, replica: 0}, request{id: id, replica: 1})
	}
	for k := 0; k < 4; k++ {
		p.warm = twin(p.warm, p.add(checkReq(base+600+int64(k), smallCompounds)))
	}
	for i := 0; i < n/2; i++ {
		p.reqs = twin(p.reqs, p.add(checkReq(base+10_000+int64(i), smallCompounds)))
	}
	return p
}

// Open-loop shape of predict-open.
const (
	predictRate  = 500.0                  // predict arrivals per second (Poisson)
	bgEvery      = 200 * time.Millisecond // one background cold check per period
	predictPairs = 20_000                 // app/size identities the Zipf draws range over
)

// poissonSchedule returns n arrival offsets of a Poisson process at rate
// per second, conditioned on its n-th arrival falling at n/rate: the
// sorted draws of n uniform offsets over that span. Every seed then
// offers exactly the same mean rate, while gaps stay exponential.
func poissonSchedule(rng *rand.Rand, n int, rate float64) []time.Duration {
	span := float64(n) / rate * float64(time.Second)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * span)
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

// genPredictOpen: n analytic predicts arriving as a Poisson process at
// predictRate, seeded Zipf(1.1) draws over a fixed universe of
// predictPairs app/size identities (rank r is suite workload r mod 16
// at its first default size plus r/16), with a background 12-compound
// cold check on a never-used seed every bgEvery.
func genPredictOpen(seed int64, n int) *plan {
	p := &plan{}
	base := seedBase(seed)
	suite := workload.DiverseSuite()
	byRank := map[uint64]int32{}
	predict := func(r uint64) int32 {
		id, ok := byRank[r]
		if !ok {
			w := suite[r%uint64(len(suite))]
			id = p.add(predictReq(700, w.Name(), w.DefaultSizes()[0]+int(r/uint64(len(suite)))))
			byRank[r] = id
		}
		return id
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, predictPairs-1)
	for i := 0; i < 100; i++ {
		p.warm = append(p.warm, request{id: predict(zipf.Uint64())})
	}
	at := poissonSchedule(rng, n, predictRate)
	nextBg, bg := time.Duration(0), int64(0)
	for _, due := range at {
		for nextBg <= due {
			id := p.add(checkReq(base+20_000+bg, smallCompounds))
			p.reqs = append(p.reqs, request{id: id, bg: true, at: nextBg})
			nextBg += bgEvery
			bg++
		}
		p.reqs = append(p.reqs, request{id: predict(zipf.Uint64()), at: due})
	}
	return p
}
