package main

import (
	"fmt"
	"time"

	"prairie/internal/server"
)

// World names as registered by server.DefaultRegistry.
const (
	wPrairie    = "oodb/prairie"
	wVolcano    = "oodb/volcano"
	wRelational = "relational"
	wDSL        = "dsl"
)

var worldNames = []string{wPrairie, wVolcano, wRelational, wDSL}

// Fixed service-side parameters shared by every workload. The catalog
// and demo data are seeded by these constants, never by --seed: the
// benchmark seed drives only the request draws, their order and their
// arrival times, so every seed optimizes and executes the same queries.
const (
	maxN      = 8    // widest query any pool names
	worldSeed = 101  // catalog seed of every world
	execSeed  = 101  // demo-database seed (Config.ExecSeed)
	execRows  = 4096 // rows per class of the demo database (Config.ExecRows)
	// setup_s is the median of at least minSetups set-ups per run, and of
	// more (up to maxSetups) while they fit in setupBudget.
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second

	// requestTimeout bounds one request on the client side; the
	// server's own default is 5s.
	requestTimeout = 10 * time.Second
)

// query is one pool entry: a world and a query spec.
type query struct {
	World string
	Spec  server.QuerySpec
}

func (q query) String() string { return q.World + ":" + q.Spec.String() }

// workload is one traffic mix. Every field is recorded in each result.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Loop is "open" (seeded Poisson arrivals at Rate) or "closed"
	// (Clients senders, each waiting for its answer).
	Loop    string  `json:"loop"`
	Rate    float64 `json:"rate_rps,omitempty"`
	Clients int     `json:"clients,omitempty"`
	// Saturate gives an open loop's second half to senders() closed-loop
	// senders, whose answered requests per second are its
	// throughput_rps; an open loop without it reports its goodput at
	// Rate.
	Saturate bool `json:"saturate,omitempty"`
	// Tier and Execute are set on every optimize request.
	Tier    string `json:"tier"`
	Execute bool   `json:"execute"`
	// CacheSize is the server's plan-cache capacity (Config.CacheSize).
	CacheSize int `json:"cache_size"`
	// ZipfS > 0 draws requests from the pool with that skew (index 0
	// hottest); 0 sends the whole pool once per round in seeded order.
	ZipfS float64 `json:"zipf_s,omitempty"`
	// InvalidateEvery > 0 bumps the cache epoch every that many
	// requests; RoundInvalidate bumps it before every round.
	InvalidateEvery int  `json:"invalidate_every,omitempty"`
	RoundInvalidate bool `json:"round_invalidate,omitempty"`
	// TailQ is the tail percentile the summary and loadgen.tail_ms
	// report (lowered by the ≥10 samples-beyond rule when a run is
	// short).
	TailQ    float64  `json:"tail_q"`
	Stresses []string `json:"stresses"`
	Bypasses []string `json:"bypasses"`
	Pool     []query  `json:"-"`
	PoolDesc string   `json:"pool"`
}

func spec(fam string, n int, graph string) server.QuerySpec {
	return server.QuerySpec{Family: fam, N: n, Graph: graph}
}

// pair returns the same specs on both OODB worlds, Prairie first, so
// prairie_volcano_ratio can pair them.
func pair(specs ...server.QuerySpec) []query {
	var out []query
	for _, s := range specs {
		out = append(out, query{wPrairie, s}, query{wVolcano, s})
	}
	return out
}

func on(world string, specs ...server.QuerySpec) []query {
	out := make([]query, len(specs))
	for i, s := range specs {
		out[i] = query{world, s}
	}
	return out
}

// interleave merges groups round-robin, so a Zipf draw over the result
// reaches every world among its hottest ranks.
func interleave(groups ...[]query) []query {
	var out []query
	for i := 0; ; i++ {
		added := false
		for _, g := range groups {
			if i < len(g) {
				out = append(out, g[i])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

func chain(fam string, lo, hi int, graph string) []server.QuerySpec {
	var out []server.QuerySpec
	for n := lo; n <= hi; n++ {
		out = append(out, spec(fam, n, graph))
	}
	return out
}

func cat(lists ...[]server.QuerySpec) []server.QuerySpec {
	var out []server.QuerySpec
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// The relational world reads only N and whether the family selects
// (E3/E4); the DSL world reads only N. Their pools name each distinct
// cache key once.
var workloads = []*workload{
	{
		Name: "hit-stream",
		Why:  "warm plan-cache hits over all four worlds: decode, build, fingerprint, cache lookup and encode, with no search",
		Loop: "open", Rate: 1000, Saturate: true,
		Tier: "full", CacheSize: 512, ZipfS: 1.2,
		TailQ:    0.95,
		Stresses: []string{"server", "wire", "qgen", "volcano.fingerprint", "plancache"},
		Bypasses: []string{"volcano.search", "volcano.tier", "exec"},
		Pool: interleave(
			pair(spec("E1", 4, ""), spec("E3", 3, ""), spec("E2", 3, "star"), spec("E4", 2, ""),
				spec("E1", 6, ""), spec("E1", 5, "star"), spec("E2", 2, ""), spec("E3", 4, "star"),
				spec("E1", 2, ""), spec("E4", 3, ""), spec("E1", 3, "star"), spec("E2", 3, ""), spec("E1", 7, "")),
			on(wRelational, spec("E1", 4, ""), spec("E3", 5, ""), spec("E1", 6, ""), spec("E3", 7, ""),
				spec("E1", 3, ""), spec("E3", 3, ""), spec("E1", 8, ""), spec("E3", 8, "")),
			on(wDSL, chain("E1", 2, 7, "")...),
		),
	},
	{
		Name: "cold-search",
		Why:  "every optimize misses (invalidate before each round), so full Volcano search dominates and the Prairie-vs-Volcano gap shows",
		Loop: "closed", Clients: 1,
		Tier: "full", CacheSize: 512, RoundInvalidate: true,
		TailQ:    0.95,
		Stresses: []string{"volcano.search", "p2v rule sets"},
		Bypasses: []string{"plancache hits", "volcano.tier", "exec"},
		Pool: interleave(
			pair(cat(chain("E1", 4, 8, ""), chain("E1", 5, 7, "star"),
				chain("E2", 3, 5, ""), chain("E2", 3, 4, "star"),
				chain("E3", 3, 5, ""), chain("E3", 3, 4, "star"),
				chain("E4", 2, 3, ""), chain("E4", 2, 3, "star"))...),
			on(wRelational, cat(chain("E1", 4, 8, ""), chain("E3", 4, 8, ""))...),
			on(wDSL, chain("E1", 6, 8, "")...),
		),
	},
	{
		Name: "churn-auto",
		Why:  "Zipf keys over 3x the cache capacity under tier=auto with periodic invalidation: misses, evictions, greedy answers and background refinement",
		// Every key's full search takes at most about 5ms, and the skew
		// keeps roughly three requests in four on cache hits: the median
		// then sits among the hits and the tail among the misses, rather
		// than on the boundary between the two, and the refinements an
		// invalidation sets off do not pile up into stalls of hundreds of
		// milliseconds that would make the figures differ run to run.
		Loop: "open", Rate: 400,
		Tier: "auto", CacheSize: 16, ZipfS: 1.3, InvalidateEvery: 800,
		TailQ:    0.95,
		Stresses: []string{"plancache inserts/evictions", "volcano.tier", "volcano.search (background)"},
		Bypasses: []string{"exec"},
		Pool: interleave(
			pair(cat(chain("E1", 2, 6, ""), chain("E1", 3, 5, "star"), chain("E2", 2, 3, ""),
				chain("E2", 3, 3, "star"), chain("E3", 2, 3, ""), chain("E3", 3, 3, "star"),
				chain("E4", 2, 2, ""))...),
			on(wRelational, cat(chain("E1", 2, 6, ""), chain("E3", 2, 6, ""))...),
			on(wDSL, chain("E1", 2, 8, "")...),
		),
	},
	{
		Name: "execute",
		Why:  "warm plans run with execute=true on a 4096-row demo database, so the iterator executor dominates",
		Loop: "closed", Clients: 1,
		Tier: "full", Execute: true, CacheSize: 512,
		TailQ:    0.95,
		Stresses: []string{"exec"},
		Bypasses: []string{"volcano.search (plans are warm)", "volcano.tier"},
		Pool: interleave(
			pair(cat(chain("E1", 2, 6, ""), chain("E2", 2, 6, ""))...),
			on(wRelational, chain("E1", 2, 6, "")...),
		),
	},
}

func init() {
	for _, w := range workloads {
		w.PoolDesc = describePool(w.Pool)
	}
}

// describePool summarizes a pool as "<world>: <specs>" per world.
func describePool(pool []query) string {
	byWorld := map[string][]string{}
	for _, q := range pool {
		byWorld[q.World] = append(byWorld[q.World], q.Spec.String())
	}
	s := fmt.Sprintf("%d queries;", len(pool))
	for _, w := range worldNames {
		if l := byWorld[w]; len(l) > 0 {
			s += fmt.Sprintf(" %s %v;", w, l)
		}
	}
	return s
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
