package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
)

// warmHitPool is a spread of warm-hit requests over all four worlds:
// both OODB rule sets on linear and star graphs, the relational world
// with and without a selection, and the DSL world.
var warmHitPool = []OptimizeRequest{
	{Ruleset: "oodb/prairie", Query: QuerySpec{Family: "E1", N: 4}},
	{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 4}},
	{Ruleset: "oodb/prairie", Query: QuerySpec{Family: "E3", N: 3}},
	{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E2", N: 3, Graph: "star"}},
	{Ruleset: "oodb/prairie", Query: QuerySpec{Family: "E4", N: 2}},
	{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 6}},
	{Ruleset: "oodb/prairie", Query: QuerySpec{Family: "E1", N: 5, Graph: "star"}},
	{Ruleset: "relational", Query: QuerySpec{Family: "E1", N: 4}},
	{Ruleset: "relational", Query: QuerySpec{Family: "E3", N: 5}},
	{Ruleset: "relational", Query: QuerySpec{Family: "E1", N: 6}},
	{Ruleset: "dsl", Query: QuerySpec{Family: "E1", N: 3}},
	{Ruleset: "dsl", Query: QuerySpec{Family: "E1", N: 5}},
}

// warmHitServer builds a server over all four worlds (the DSL world
// compiled from examples/dslrules) and returns it with the request
// bodies of warmHitPool (include_plan on), every one already answered
// once so the next request for it is a cache hit.
func warmHitServer(tb testing.TB) (*Server, [][]byte) {
	tb.Helper()
	src, err := os.ReadFile("../../examples/dslrules/rules.prairie")
	if err != nil {
		tb.Fatal(err)
	}
	reg, err := DefaultRegistry(8, 101, string(src))
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := New(Config{Registry: reg})
	if err != nil {
		tb.Fatal(err)
	}
	bodies := make([][]byte, len(warmHitPool))
	for i, req := range warmHitPool {
		req.IncludePlan = true
		if bodies[i], err = json.Marshal(req); err != nil {
			tb.Fatal(err)
		}
		serveOptimize(tb, srv.Handler(), bodies[i])
	}
	return srv, bodies
}

// serveOptimize answers one /v1/optimize request in-process.
func serveOptimize(tb testing.TB, h http.Handler, body []byte) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, r)
	if rr.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	return rr
}

// BenchmarkWarmHit measures one warm plan-cache hit through the
// service handler (no sockets) with include_plan on, cycling over
// queries of all four worlds.
func BenchmarkWarmHit(b *testing.B) {
	srv, bodies := warmHitServer(b)
	h := srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOptimize(b, h, bodies[i%len(bodies)])
	}
}

// warmHitMaxAllocs is the allocation ceiling of one warm hit through
// the handler, the httptest request and recorder included. A hit
// decodes the request, looks its prepared query up, makes one cache
// lookup and appends pre-rendered bytes; rebuilding, fingerprinting,
// cloning or reflectively encoding the plan costs hundreds of
// allocations and trips it.
const warmHitMaxAllocs = 80

// TestWarmHitAllocs holds every warm hit of warmHitPool under the
// ceiling.
func TestWarmHitAllocs(t *testing.T) {
	srv, bodies := warmHitServer(t)
	h := srv.Handler()
	for i, body := range bodies {
		allocs := testing.AllocsPerRun(50, func() { serveOptimize(t, h, body) })
		if allocs > warmHitMaxAllocs {
			t.Errorf("%s %v: warm hit takes %.0f allocs, ceiling %d",
				warmHitPool[i].Ruleset, warmHitPool[i].Query, allocs, warmHitMaxAllocs)
		}
	}
}

// TestWarmHitServesRendering: a hit answers from its cache entry's
// rendering, and the response bytes match a miss of the same request
// except for the fields that describe the lookup itself.
func TestWarmHitServesRendering(t *testing.T) {
	srv, bodies := warmHitServer(t)
	srv.Cache().Invalidate()
	miss := serveOptimize(t, srv.Handler(), bodies[0]).Body.String()
	hit := serveOptimize(t, srv.Handler(), bodies[0]).Body.String()
	if !strings.Contains(hit, `"cache_hit":true`) {
		t.Fatalf("repeat request missed: %s", hit)
	}
	mask := regexp.MustCompile(`"(elapsed_us|cache_hit|stats)":(\d+|true|false|\{[^}]*\})`)
	if m, h := mask.ReplaceAllString(miss, ""), mask.ReplaceAllString(hit, ""); m != h {
		t.Errorf("hit response differs from miss response:\nmiss %s\nhit  %s", m, h)
	}
}

// TestWriteJSONEncodeFailure: a value encoding/json refuses (a
// non-finite float) is answered 500 with an error body, not the chosen
// status with an empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rr := httptest.NewRecorder()
	writeJSON(rr, http.StatusOK, map[string]float64{"cost": math.Inf(1)})
	if rr.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", rr.Code)
	}
	var body errorBody
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Errorf("body %q is not an error envelope (%v)", rr.Body.String(), err)
	}
}

// TestWriteResponseEncodeFailure is TestWriteJSONEncodeFailure for the
// appender the optimize and batch handlers write through.
func TestWriteResponseEncodeFailure(t *testing.T) {
	rr := httptest.NewRecorder()
	resp := &OptimizeResponse{Ruleset: "x", PlannerTier: "full", Cost: math.NaN()}
	writeResponse(rr, http.StatusOK, resp)
	if rr.Code != http.StatusInternalServerError || !strings.Contains(rr.Body.String(), `"error"`) {
		t.Errorf("unencodable response: status %d body %q, want 500 with an error", rr.Code, rr.Body.String())
	}
}

// TestPreparedMemoBounded: the prepared-query memo is keyed on what
// each world's builder reads, so junk in the fields a world ignores —
// family and graph for dsl, graph for relational — cannot grow it past
// the world's count of valid specs.
func TestPreparedMemoBounded(t *testing.T) {
	src, err := os.ReadFile("../../examples/dslrules/rules.prairie")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := DefaultRegistry(4, 101, string(src))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	families := []string{"E1", "E2", "E3", "E4"}
	for i := 0; i < 10000; i++ {
		junk := fmt.Sprintf("junk-%d", i)
		n := 2 + i%3
		for _, req := range []OptimizeRequest{
			{Ruleset: "dsl", Query: QuerySpec{Family: junk, N: n, Graph: junk}},
			{Ruleset: "relational", Query: QuerySpec{Family: families[i%4], N: n, Graph: junk}},
		} {
			body, _ := json.Marshal(req)
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body)))
			if rr.Code != http.StatusOK {
				t.Fatalf("%v: status %d: %s", req.Query, rr.Code, rr.Body.String())
			}
		}
	}
	for name, max := range map[string]int{"dsl": 4, "relational": 4 * 3} {
		w, _ := reg.Lookup(name)
		w.prepMu.RLock()
		got := len(w.prepared)
		w.prepMu.RUnlock()
		if got == 0 || got > max {
			t.Errorf("%s: prepared-query memo holds %d entries after junk specs, want 1..%d", name, got, max)
		}
	}
}

// TestWarmHitConcurrent drives the shared state of the hit path — the
// prepared-query memo, each query's key memo and each entry's render
// slot — from several goroutines at once, across tiers, include_plan
// settings and cache invalidations; every answer must carry the plan
// text of a cold reference run. Run it under -race.
func TestWarmHitConcurrent(t *testing.T) {
	srv, bodies := warmHitServer(t)
	h := srv.Handler()
	want := make([]string, len(bodies))
	for i, body := range bodies {
		var or OptimizeResponse
		if err := json.Unmarshal(serveOptimize(t, h, body).Body.Bytes(), &or); err != nil {
			t.Fatal(err)
		}
		want[i] = or.PlanText
	}
	const workers, rounds = 4, 60
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(warmHitPool)
				req := warmHitPool[i]
				req.IncludePlan = r%2 == 0
				if g%2 == 1 {
					req.Tier = "greedy"
				}
				if g == 0 && r%20 == 0 {
					srv.Cache().Invalidate()
				}
				body, _ := json.Marshal(req)
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body)))
				var or OptimizeResponse
				if err := json.Unmarshal(rr.Body.Bytes(), &or); err != nil || rr.Code != http.StatusOK {
					errs <- fmt.Errorf("%v: status %d: %s", req.Query, rr.Code, rr.Body.String())
					return
				}
				if req.Tier == "" && or.PlanText != want[i] {
					errs <- fmt.Errorf("%s %v: plan %q, want %q", req.Ruleset, req.Query, or.PlanText, want[i])
					return
				}
				if (or.Plan != nil) != req.IncludePlan {
					errs <- fmt.Errorf("%s %v: include_plan=%v but plan present=%v", req.Ruleset, req.Query, req.IncludePlan, or.Plan != nil)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	srv.Router().Wait()
}
