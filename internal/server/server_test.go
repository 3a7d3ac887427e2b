package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"prairie/internal/core"
	"prairie/internal/obs"
	"prairie/internal/volcano"
)

// testServer stands up a service over the default worlds on a small
// catalog (fast) with the given config overrides applied.
func testServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	reg, err := DefaultRegistry(4, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Registry: reg}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func postJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func optimizeOK(t *testing.T, base string, req OptimizeRequest) OptimizeResponse {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize %v: status %d: %s", req.Query, resp.StatusCode, body)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatalf("optimize %v: %v", req.Query, err)
	}
	return or
}

// TestOptimizeEveryWorld: every registered world answers a basic query
// and a repeat of the same request is served from the shared cache with
// an identical plan.
func TestOptimizeEveryWorld(t *testing.T) {
	reg, err := DefaultRegistry(4, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	for _, name := range reg.Names() {
		t.Run(name, func(t *testing.T) {
			req := OptimizeRequest{Ruleset: name, Query: QuerySpec{Family: "E1", N: 3}}
			cold := optimizeOK(t, hs.URL, req)
			if cold.PlanText == "" {
				t.Fatal("empty plan_text")
			}
			if cold.CacheHit {
				t.Error("first request reported cache_hit")
			}
			if cold.Stats.Exprs == 0 {
				t.Error("stats missing from cold response")
			}
			warm := optimizeOK(t, hs.URL, req)
			if !warm.CacheHit {
				t.Error("repeat request was not a cache hit")
			}
			if warm.PlanText != cold.PlanText {
				t.Errorf("cache hit plan differs:\nwarm: %s\ncold: %s", warm.PlanText, cold.PlanText)
			}
			if warm.Cost != cold.Cost {
				t.Errorf("cache hit cost %g != cold %g", warm.Cost, cold.Cost)
			}
		})
	}
}

// TestOptimizeBudgetClasses: the "tiny" class degrades a hard query and
// says so on the wire; an unknown class is a 400; degraded plans carry a
// cause and path.
func TestOptimizeBudgetClasses(t *testing.T) {
	_, hs := testServer(t, nil)

	or := optimizeOK(t, hs.URL, OptimizeRequest{
		Ruleset: "oodb/volcano",
		Query:   QuerySpec{Family: "E4", N: 3},
		Budget:  "tiny",
	})
	if !or.Degraded {
		t.Skip("E4 n=3 fits in MaxExprs=400; budget no longer degrades it")
	}
	if or.DegradeCause == "" || or.DegradePath == "" {
		t.Errorf("degraded response missing cause/path: %+v", or)
	}
	if or.PlanText == "" {
		t.Error("degraded response missing plan")
	}

	resp, body := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{
		Ruleset: "oodb/volcano",
		Query:   QuerySpec{Family: "E1", N: 3},
		Budget:  "no-such-class",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown budget: status %d: %s", resp.StatusCode, body)
	}
}

// TestOptimizeErrors: malformed requests are 4xx with a JSON error and
// never a partial plan.
func TestOptimizeErrors(t *testing.T) {
	_, hs := testServer(t, nil)
	cases := []struct {
		name string
		req  OptimizeRequest
		want int
	}{
		{"unknown ruleset", OptimizeRequest{Ruleset: "nope", Query: QuerySpec{Family: "E1", N: 3}}, http.StatusNotFound},
		{"unknown family", OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E9", N: 3}}, http.StatusBadRequest},
		{"n too large", OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 40}}, http.StatusBadRequest},
		{"n too small", OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 1}}, http.StatusBadRequest},
		{"bad graph", OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3, Graph: "mesh"}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postJSON(t, hs.URL+"/v1/optimize", c.req)
			if resp.StatusCode != c.want {
				t.Errorf("status %d, want %d: %s", resp.StatusCode, c.want, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Errorf("error body not JSON with error field: %s", body)
			}
			if strings.Contains(string(body), "plan_text") {
				t.Errorf("error response leaked a plan: %s", body)
			}
		})
	}

	// Non-JSON body.
	resp, err := http.Post(hs.URL+"/v1/optimize", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(hs.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET optimize: status %d", resp.StatusCode)
	}
}

// TestBatch: a mixed batch comes back index-aligned, duplicate items
// collapse through the shared cache, and per-item failures don't fail
// their neighbours.
func TestBatch(t *testing.T) {
	_, hs := testServer(t, nil)
	items := []OptimizeRequest{
		{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}},
		{Ruleset: "oodb/prairie", Query: QuerySpec{Family: "E2", N: 3}},
		{Ruleset: "relational", Query: QuerySpec{Family: "E3", N: 3}},
		{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}}, // dup of [0]
	}
	resp, body := postJSON(t, hs.URL+"/v1/batch", BatchRequest{Items: items, Workers: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(items) {
		t.Fatalf("got %d results for %d items", len(br.Results), len(items))
	}
	for i, r := range br.Results {
		if r.Error != "" {
			t.Fatalf("item %d: %s", i, r.Error)
		}
		if r.Ruleset != items[i].Ruleset {
			t.Errorf("item %d: answered by %s, want %s", i, r.Ruleset, items[i].Ruleset)
		}
		if r.PlanText == "" {
			t.Errorf("item %d: empty plan", i)
		}
	}
	if br.Results[0].PlanText != br.Results[3].PlanText {
		t.Error("duplicate items got different plans")
	}
	if br.Errors != 0 {
		t.Errorf("batch reports %d errors", br.Errors)
	}

	// A malformed item fails the whole batch up front with 4xx.
	items[1].Query.Family = "E9"
	resp, body = postJSON(t, hs.URL+"/v1/batch", BatchRequest{Items: items})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad item: status %d: %s", resp.StatusCode, body)
	}
}

// postBatch answers a batch, failing the test on any non-200.
func postBatch(t *testing.T, base string, req BatchRequest) BatchResponse {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	return br
}

// TestBatchSharesOptimizeCache: a batch item is a hit on the entry
// /v1/optimize filled for the same query, whatever its timeout_ms — a
// request timeout is a deadline, not part of the budget class that keys
// the cache — so one query holds one entry.
func TestBatchSharesOptimizeCache(t *testing.T) {
	srv, hs := testServer(t, nil)
	req := OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}}
	optimizeOK(t, hs.URL, req)
	for _, ms := range []int64{0, 1234} {
		req.TimeoutMS = ms
		br := postBatch(t, hs.URL, BatchRequest{Items: []OptimizeRequest{req}})
		if it := br.Results[0]; it.Error != "" || !it.CacheHit {
			t.Errorf("timeout_ms=%d: batch item missed the optimize entry (error %q)", ms, it.Error)
		}
	}
	if n := srv.Cache().Len(); n != 1 {
		t.Errorf("cache holds %d entries for one query, want 1", n)
	}
}

// TestBatchItemPanic: an item whose search panics answers with an item
// error; the batch, its other items and the server carry on.
func TestBatchItemPanic(t *testing.T) {
	reg, err := DefaultRegistry(4, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	real, _ := reg.Lookup("oodb/volcano")
	boom := OODBVolcanoWorld(real.Cat, real.MaxN)
	boom.Name = "boom"
	for i, r := range boom.RS.Trans {
		r := *r
		r.Cond = func(*volcano.TBinding) bool { panic("synthetic rule failure") }
		boom.RS.Trans[i] = &r
	}
	reg.Add(boom)
	srv, err := New(Config{Registry: reg, Obs: &obs.Observer{Metrics: obs.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	items := []OptimizeRequest{
		{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}},
		{Ruleset: "boom", Query: QuerySpec{Family: "E1", N: 3}},
		{Ruleset: "relational", Query: QuerySpec{Family: "E3", N: 3}},
	}
	br := postBatch(t, hs.URL, BatchRequest{Items: items, Workers: 2})
	for i, it := range br.Results {
		if i == 1 {
			if it.OptimizeResponse != nil || !strings.Contains(it.Error, "synthetic rule failure") {
				t.Errorf("panicking item: %+v, want the panic as its error", it)
			}
			continue
		}
		if it.Error != "" || it.PlanText == "" {
			t.Errorf("item %d: error %q, plan %q", i, it.Error, it.PlanText)
		}
	}
	if br.Errors != 1 {
		t.Errorf("batch reports %d errors, want 1", br.Errors)
	}
	if got := srv.mPanics.Value(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
	optimizeOK(t, hs.URL, items[2])
}

// TestRulesetsAndHealth: discovery and liveness endpoints.
func TestRulesetsAndHealth(t *testing.T) {
	srv, hs := testServer(t, nil)

	resp, err := http.Get(hs.URL + "/v1/rulesets")
	if err != nil {
		t.Fatal(err)
	}
	var rl struct {
		Rulesets []rulesetInfo `json:"rulesets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rl.Rulesets) != 3 {
		t.Fatalf("got %d rulesets, want 3: %+v", len(rl.Rulesets), rl)
	}
	for _, info := range rl.Rulesets {
		if len(info.Budgets) == 0 || info.MaxN < 2 {
			t.Errorf("ruleset %+v incomplete", info)
		}
	}

	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}

	srv.BeginDrain()
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d", resp.StatusCode)
	}
}

// TestInvalidate bumps the cache epoch over the wire: the next request
// is a fresh miss but still returns the identical plan.
func TestInvalidate(t *testing.T) {
	_, hs := testServer(t, nil)
	req := OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}}
	cold := optimizeOK(t, hs.URL, req)
	if hit := optimizeOK(t, hs.URL, req); !hit.CacheHit {
		t.Fatal("expected a cache hit before invalidation")
	}

	resp, body := postJSON(t, hs.URL+"/v1/invalidate", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate: status %d: %s", resp.StatusCode, body)
	}
	var ep map[string]uint64
	if err := json.Unmarshal(body, &ep); err != nil || ep["epoch"] == 0 {
		t.Fatalf("invalidate response: %s", body)
	}

	after := optimizeOK(t, hs.URL, req)
	if after.CacheHit {
		t.Error("request after invalidation was served from the stale epoch")
	}
	if after.PlanText != cold.PlanText {
		t.Errorf("plan changed across invalidation:\nafter: %s\ncold:  %s", after.PlanText, cold.PlanText)
	}
}

// TestMetricsExposed: the obs surface is mounted on the service mux and
// server counters appear in the Prometheus text.
func TestMetricsExposed(t *testing.T) {
	ob := &obs.Observer{Metrics: obs.NewRegistry()}
	_, hs := testServer(t, func(c *Config) { c.Obs = ob })
	optimizeOK(t, hs.URL, OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}})

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{"prairie_server_requests_total 1", "prairie_server_optimize_seconds"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestRequestTimeoutDegrades: a tight per-request deadline makes the
// search degrade gracefully — 200 with degraded=true, not an error, and
// the plan is complete.
func TestRequestTimeoutDegrades(t *testing.T) {
	_, hs := testServer(t, nil)
	or := optimizeOK(t, hs.URL, OptimizeRequest{
		Ruleset:   "oodb/volcano",
		Query:     QuerySpec{Family: "E4", N: 4},
		TimeoutMS: 1,
	})
	if !or.Degraded {
		t.Skip("E4 n=4 finished within 1ms; cannot exercise the deadline path on this machine")
	}
	if or.PlanText == "" {
		t.Error("degraded response missing plan")
	}
	if or.DegradeCause == "" {
		t.Error("degraded response missing cause")
	}
}

// TestPanicIsolation: a panicking request is answered 500 and the
// server keeps serving.
func TestPanicIsolation(t *testing.T) {
	reg, err := DefaultRegistry(4, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	world, _ := reg.Lookup("oodb/volcano")
	boom := &World{
		Name: "boom",
		RS:   world.RS,
		MaxN: world.MaxN,
		Build: func(q QuerySpec) (*core.Expr, *core.Descriptor, error) {
			panic("synthetic build failure")
		},
	}
	reg.Add(boom)
	srv, err := New(Config{Registry: reg, Obs: &obs.Observer{Metrics: obs.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	resp, body := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{Ruleset: "boom", Query: QuerySpec{Family: "E1", N: 3}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "synthetic build failure") {
		t.Errorf("panic not surfaced: %s", body)
	}
	// Server still serves.
	optimizeOK(t, hs.URL, OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}})
	if got := srv.mPanics.Value(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
}

// TestBudgetClassSharesCache: per-request timeouts must not fragment
// the cache (only Budget values key it): two different timeout_ms values
// on the same query share one entry.
func TestBudgetClassSharesCache(t *testing.T) {
	srv, hs := testServer(t, nil)
	req := OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}, TimeoutMS: 10000}
	optimizeOK(t, hs.URL, req)
	req.TimeoutMS = 20000
	warm := optimizeOK(t, hs.URL, req)
	if !warm.CacheHit {
		t.Error("different timeout_ms fragmented the cache")
	}
	if srv.Cache().Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", srv.Cache().Len())
	}

	// Distinct budget classes DO key separately (different search
	// effort may legitimately produce different plans).
	req.Budget = "batch"
	cold := optimizeOK(t, hs.URL, req)
	if cold.CacheHit {
		t.Error("different budget class hit the other class's entry")
	}
}
