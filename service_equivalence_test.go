package prairie_test

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	"prairie/internal/wire"
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
	tree, err := wire.DecodePlan(w.RS.Algebra, or.Plan)
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

// planMirror and ResponseMirror are server.PlanNode and
// server.OptimizeResponse without their MarshalJSON methods: what
// encoding/json writes for them by reflection is the reference the
// service's JSON appender must match byte for byte. ResponseMirror is
// exported because itemMirror embeds a pointer to it, which
// encoding/json cannot fill for an unexported type.
type planMirror struct {
	Op    string                    `json:"op,omitempty"`
	File  string                    `json:"file,omitempty"`
	Props map[string]wire.PropValue `json:"props,omitempty"`
	Kids  []*planMirror             `json:"kids,omitempty"`
}

type ResponseMirror struct {
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

// itemMirror and batchMirror are server.BatchItemResponse and
// server.BatchResponse without their JSON appender. A nil embedded
// pointer writes no members, as an error item's missing response does.
type itemMirror struct {
	*ResponseMirror
	Error string `json:"error,omitempty"`
}

type batchMirror struct {
	Results  []itemMirror `json:"results"`
	WallUS   int64        `json:"wall_us"`
	Workers  int          `json:"workers"`
	Errors   int          `json:"errors"`
	Degraded int          `json:"degraded"`
}

// lookupFields matches the response members that describe how the plan
// was found rather than the plan: timing (the search's and the
// execution's), the hit flag, and the search counters (a hit reports the
// cold run's memo shape but fires no rules).
var lookupFields = regexp.MustCompile(`"(elapsed_us|cache_hit|stats|request_id)":(\d+|true|false|"[^"]*"|\{[^}]*\})`)

// testServiceHitBytes: for served queries on all four worlds under
// tier=full|auto|greedy, with include_plan on and off in both orders and
// execute on and off, the bytes of a hit — served from its cache entry's
// pre-rendered plan — equal those of the miss that filled the entry,
// once the lookup fields are masked; every response is exactly what
// encoding/json writes for the same values; and /v1/batch answers each
// request, as a one-item batch on a twin server that has seen the same
// requests, with the members of the /v1/optimize response (an error
// included: the DSL world has no data to execute on). Under tier=auto
// the miss answers with the greedy plan while a background refinement
// may swap in the full one, so there the hits are compared with each
// other, and with the miss only when no refinement landed.
func testServiceHitBytes(t *testing.T) {
	src, err := os.ReadFile("examples/dslrules/rules.prairie")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := server.DefaultRegistry(4, 101, string(src))
	if err != nil {
		t.Fatal(err)
	}
	// One server answers /v1/optimize, its twin the same requests as
	// batches: a separate cache and router each, so both see the same
	// history.
	var srvs [2]*server.Server
	for i := range srvs {
		if srvs[i], err = server.New(server.Config{Registry: reg}); err != nil {
			t.Fatal(err)
		}
	}
	serve := func(srv *server.Server, path string, v any) (int, []byte) {
		body, _ := json.Marshal(v)
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		srv.Router().Wait()
		return rr.Code, rr.Body.Bytes()
	}
	// sameAsJSON fails unless got is what encoding/json writes for the
	// value it decodes to in mirror.
	sameAsJSON := func(what string, got []byte, mirror any) {
		if err := json.Unmarshal(got, mirror); err != nil {
			t.Fatal(err)
		}
		ref, _ := json.Marshal(mirror)
		if string(got) != string(ref)+"\n" {
			t.Fatalf("%s: response differs from encoding/json\n got %s\nwant %s", what, got, ref)
		}
	}
	masked := func(b string) string { return lookupFields.ReplaceAllString(b, "") }
	post := func(req server.OptimizeRequest, wantOK bool) string {
		what := fmt.Sprintf("%s %s tier=%s include_plan=%v execute=%v", req.Ruleset, req.Query, req.Tier, req.IncludePlan, req.Execute)
		code, body := serve(srvs[0], "/v1/optimize", req)
		if (code == http.StatusOK) != wantOK {
			t.Fatalf("%s: status %d: %s", what, code, body)
		}
		if wantOK {
			sameAsJSON(what, body, &ResponseMirror{})
		}
		code, batch := serve(srvs[1], "/v1/batch", server.BatchRequest{Items: []server.OptimizeRequest{req}})
		if code != http.StatusOK {
			t.Fatalf("%s: batch status %d: %s", what, code, batch)
		}
		sameAsJSON(what+" (batch)", batch, &batchMirror{})
		var items struct{ Results []json.RawMessage }
		if err := json.Unmarshal(batch, &items); err != nil {
			t.Fatal(err)
		}
		if got, want := masked(string(items.Results[0])), masked(strings.TrimSuffix(string(body), "\n")); got != want {
			t.Fatalf("%s: batch item differs from the optimize response\n got %s\nwant %s", what, got, want)
		}
		return string(body)
	}
	queries := map[string][]server.QuerySpec{
		"oodb/prairie": {{Family: "E1", N: 3}, {Family: "E2", N: 3, Graph: "star"}, {Family: "E3", N: 3}, {Family: "E4", N: 2}},
		"oodb/volcano": {{Family: "E1", N: 4, Graph: "star"}, {Family: "E2", N: 3}, {Family: "E3", N: 3}, {Family: "E4", N: 3}},
		"relational":   {{Family: "E1", N: 3}, {Family: "E3", N: 4}},
		"dsl":          {{Family: "E1", N: 3}, {Family: "E1", N: 4}},
	}
	for _, name := range reg.Names() {
		w, _ := reg.Lookup(name)
		for _, q := range queries[name] {
			for _, tier := range []string{"full", "auto", "greedy"} {
				for _, execute := range []bool{false, true} {
					req := func(include bool) server.OptimizeRequest {
						return server.OptimizeRequest{Ruleset: name, Query: q, Tier: tier, IncludePlan: include, Execute: execute}
					}
					invalidate := func() {
						for _, srv := range srvs {
							srv.Cache().Invalidate()
						}
					}
					if execute && w.Cat == nil {
						// No catalog, no data: every answer is the same
						// error, on both endpoints.
						invalidate()
						post(req(false), false)
						post(req(true), false)
						continue
					}
					invalidate()
					missOff := post(req(false), true)
					hitsOn := []string{post(req(true), true)} // extends the rendering with the plan
					hitsOff := []string{post(req(false), true)}
					hitsOn = append(hitsOn, post(req(true), true))
					invalidate()
					missOn := post(req(true), true)
					hitsOff = append(hitsOff, post(req(false), true))
					hitsOn = append(hitsOn, post(req(true), true))
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
