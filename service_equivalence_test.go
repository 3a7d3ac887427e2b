package prairie_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/oodb"
	"prairie/internal/qgen"
	"prairie/internal/server"
)

// This file extends the differential harness of equivalence_test.go to
// the service boundary: every plan the HTTP optimizer hands back — cold,
// cache-hit, and budget-degraded — is deserialized from the wire,
// compiled by internal/exec, executed on synthetic data, and bag-compared
// against the naive evaluation of the logical query. The service may shed
// or degrade a request, but it must never answer with a wrong plan.

// svcPost sends one optimize request and decodes the response, failing
// the test on any non-200.
func svcPost(t *testing.T, url string, req server.OptimizeRequest) server.OptimizeResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var or server.OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
		t.Fatalf("%s %s: decode: %v", req.Ruleset, req.Query, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d", req.Ruleset, req.Query, resp.StatusCode)
	}
	return or
}

// runWirePlan decodes a wire plan against the world's algebra, compiles
// it, and executes it.
func runWirePlan(t *testing.T, w *server.World, db *data.DB, or server.OptimizeResponse) *exec.Result {
	t.Helper()
	if or.Plan == nil {
		t.Fatalf("%s %s: response carries no plan tree", w.Name, or.Query)
	}
	tree, err := server.DecodePlan(w.RS.Algebra, or.Plan)
	if err != nil {
		t.Fatalf("%s %s: decode plan: %v", w.Name, or.Query, err)
	}
	it, err := exec.NewCompiler(db, w.ExecProps).Compile(tree)
	if err != nil {
		t.Fatalf("%s %s: compile: %v", w.Name, or.Query, err)
	}
	got, err := exec.Run(it)
	if err != nil {
		t.Fatalf("%s %s: execute: %v", w.Name, or.Query, err)
	}
	return got
}

// TestServiceDifferential: for both OODB worlds and every expression
// family, the plan served cold and the plan served from cache both
// execute to the same bag of tuples as the naive evaluator.
func TestServiceDifferential(t *testing.T) {
	const maxN, seed = 4, int64(101)
	reg, err := server.DefaultRegistry(maxN, seed, "")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	for _, name := range []string{"oodb/volcano", "oodb/prairie"} {
		w, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("world %s missing", name)
		}
		// The naive reference evaluates an independent logical build over
		// the world's own catalog and data; SameBag ignores tuple order,
		// so peeled root enforcers don't matter.
		db := data.Populate(w.Cat, seed, 32)
		o := oodb.New(w.Cat)
		naive := &exec.Naive{DB: db, P: exec.Props{
			Ord: o.Ord, JP: o.JP, SP: o.SP, PA: o.PA, MA: o.MA, UA: o.UA,
		}}
		for _, e := range []qgen.ExprKind{qgen.E1, qgen.E2, qgen.E3, qgen.E4} {
			q := server.QuerySpec{Family: e.String(), N: 3}
			logical, err := qgen.Build(o, e, q.N)
			if err != nil {
				t.Fatal(err)
			}
			want, err := naive.Eval(logical)
			if err != nil {
				t.Fatal(err)
			}

			req := server.OptimizeRequest{Ruleset: name, Query: q, IncludePlan: true}
			cold := svcPost(t, hs.URL, req)
			if cold.CacheHit {
				t.Errorf("%s %s: first request was a cache hit", name, q)
			}
			if got := runWirePlan(t, w, db, cold); !exec.SameBag(got, want) {
				t.Errorf("%s %s: cold plan result differs from naive evaluation", name, q)
			}

			warm := svcPost(t, hs.URL, req)
			if !warm.CacheHit {
				t.Errorf("%s %s: repeat request missed the cache", name, q)
			}
			if warm.PlanText != cold.PlanText {
				t.Errorf("%s %s: cached plan %q differs from cold plan %q", name, q, warm.PlanText, cold.PlanText)
			}
			if got := runWirePlan(t, w, db, warm); !exec.SameBag(got, want) {
				t.Errorf("%s %s: cached plan result differs from naive evaluation", name, q)
			}
		}
	}
	t.Run("hit-bytes", testServiceHitBytes)
}

// planMirror and responseMirror are server.PlanNode and
// server.OptimizeResponse without their MarshalJSON methods: what
// encoding/json writes for them by reflection is the reference the
// service's JSON appender must match byte for byte.
type planMirror struct {
	Op    string                      `json:"op,omitempty"`
	File  string                      `json:"file,omitempty"`
	Props map[string]server.PropValue `json:"props,omitempty"`
	Kids  []*planMirror               `json:"kids,omitempty"`
}

type responseMirror struct {
	Ruleset      string              `json:"ruleset"`
	Query        server.QuerySpec    `json:"query"`
	PlanText     string              `json:"plan_text"`
	Plan         *planMirror         `json:"plan,omitempty"`
	Cost         float64             `json:"cost"`
	Degraded     bool                `json:"degraded,omitempty"`
	DegradeCause string              `json:"degrade_cause,omitempty"`
	DegradePath  string              `json:"degrade_path,omitempty"`
	CacheHit     bool                `json:"cache_hit"`
	CacheOutcome string              `json:"cache_outcome,omitempty"`
	PlannerTier  string              `json:"planner_tier"`
	Refined      bool                `json:"refined,omitempty"`
	GreedyCost   float64             `json:"greedy_cost,omitempty"`
	FullCost     float64             `json:"full_cost,omitempty"`
	ElapsedUS    int64               `json:"elapsed_us"`
	Stats        server.StatsSummary `json:"stats"`
	Exec         *server.ExecSummary `json:"exec,omitempty"`
	RequestID    string              `json:"request_id,omitempty"`
}

// lookupFields matches the response members that describe how the plan
// was found rather than the plan: timing, the hit flag, and the search
// counters (a hit reports the cold run's memo shape but fires no rules).
var lookupFields = regexp.MustCompile(`"(elapsed_us|cache_hit|stats|request_id)":(\d+|true|false|"[^"]*"|\{[^}]*\})`)

// testServiceHitBytes: for served queries on all four worlds under
// tier=full|auto|greedy, with include_plan on and off in both orders,
// the bytes of a hit — served from its cache entry's pre-rendered plan
// — equal those of the miss that filled the entry, once the lookup
// fields are masked; and every response is exactly what encoding/json
// writes for the same values. Under tier=auto the miss answers with the
// greedy plan while a background refinement may swap in the full one,
// so there the hits are compared with each other, and with the miss
// only when no refinement landed.
func testServiceHitBytes(t *testing.T) {
	src, err := os.ReadFile("examples/dslrules/rules.prairie")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := server.DefaultRegistry(4, 101, string(src))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	post := func(req server.OptimizeRequest) string {
		body, _ := json.Marshal(req)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", req.Ruleset, req.Query, rr.Code, rr.Body.String())
		}
		var m responseMirror
		if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		ref, _ := json.Marshal(m)
		if got := rr.Body.String(); got != string(ref)+"\n" {
			t.Fatalf("%s %s: response differs from encoding/json\n got %s\nwant %s", req.Ruleset, req.Query, got, ref)
		}
		srv.Router().Wait()
		return rr.Body.String()
	}
	masked := func(b string) string { return lookupFields.ReplaceAllString(b, "") }
	queries := map[string][]server.QuerySpec{
		"oodb/prairie": {{Family: "E1", N: 3}, {Family: "E2", N: 3, Graph: "star"}, {Family: "E3", N: 3}, {Family: "E4", N: 2}},
		"oodb/volcano": {{Family: "E1", N: 4, Graph: "star"}, {Family: "E2", N: 3}, {Family: "E3", N: 3}, {Family: "E4", N: 3}},
		"relational":   {{Family: "E1", N: 3}, {Family: "E3", N: 4}},
		"dsl":          {{Family: "E1", N: 3}, {Family: "E1", N: 4}},
	}
	for _, name := range reg.Names() {
		for _, q := range queries[name] {
			for _, tier := range []string{"full", "auto", "greedy"} {
				req := func(include bool) server.OptimizeRequest {
					return server.OptimizeRequest{Ruleset: name, Query: q, Tier: tier, IncludePlan: include}
				}
				srv.Cache().Invalidate()
				missOff := post(req(false))
				hitsOn := []string{post(req(true))} // extends the rendering with the plan
				hitsOff := []string{post(req(false))}
				hitsOn = append(hitsOn, post(req(true)))
				srv.Cache().Invalidate()
				missOn := post(req(true))
				hitsOff = append(hitsOff, post(req(false)))
				hitsOn = append(hitsOn, post(req(true)))
				if strings.Contains(missOff, `"cache_hit":true`) || strings.Contains(missOn, `"cache_hit":true`) {
					t.Fatalf("%s %s tier=%s: first request after an invalidation hit the cache", name, q, tier)
				}
				for _, hit := range append(append([]string(nil), hitsOn...), hitsOff...) {
					if !strings.Contains(hit, `"cache_hit":true`) {
						t.Fatalf("%s %s tier=%s: repeat request missed the cache: %s", name, q, tier, hit)
					}
				}
				wantOn, wantOff := missOn, missOff
				if tier == "auto" && strings.Contains(hitsOn[0], `"refined":true`) {
					wantOn, wantOff = hitsOn[0], hitsOff[0]
				}
				for _, hit := range hitsOn {
					if masked(hit) != masked(wantOn) {
						t.Errorf("%s %s tier=%s include_plan: hit bytes differ\n got %s\nwant %s", name, q, tier, hit, wantOn)
					}
				}
				for _, hit := range hitsOff {
					if masked(hit) != masked(wantOff) {
						t.Errorf("%s %s tier=%s: hit bytes differ\n got %s\nwant %s", name, q, tier, hit, wantOff)
					}
				}
			}
		}
	}
}

// TestServiceDifferentialDegraded: a budget-degraded answer (the "tiny"
// class on an E4 chain that exhausts it) is still a correct plan — worse
// cost at most, never wrong tuples.
func TestServiceDifferentialDegraded(t *testing.T) {
	const maxN, seed = 4, int64(101)
	reg, err := server.DefaultRegistry(maxN, seed, "")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	w, _ := reg.Lookup("oodb/volcano")
	db := data.Populate(w.Cat, seed, 32)
	o := oodb.New(w.Cat)
	naive := &exec.Naive{DB: db, P: exec.Props{
		Ord: o.Ord, JP: o.JP, SP: o.SP, PA: o.PA, MA: o.MA, UA: o.UA,
	}}
	logical, err := qgen.Build(o, qgen.E4, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := naive.Eval(logical)
	if err != nil {
		t.Fatal(err)
	}

	or := svcPost(t, hs.URL, server.OptimizeRequest{
		Ruleset:     "oodb/volcano",
		Query:       server.QuerySpec{Family: "E4", N: 4},
		Budget:      "tiny",
		IncludePlan: true,
	})
	if !or.Degraded {
		t.Skipf("E4 n=4 finished within the tiny budget (cause %q); nothing to degrade", or.DegradeCause)
	}
	if got := runWirePlan(t, w, db, or); !exec.SameBag(got, want) {
		t.Error("degraded plan result differs from naive evaluation")
	}
}
