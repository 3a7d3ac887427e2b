package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/exec"
	"prairie/internal/obs"
	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/prairielang"
	"prairie/internal/qgen"
	"prairie/internal/relopt"
	"prairie/internal/server"
	"prairie/internal/volcano"
)

// execAlgorithms are the executor operators the execute pool's plans use;
// each gets an exec.op_ms.<algorithm> metric.
var execAlgorithms = []string{"File_scan", "Hash_join", "Merge_join", "Merge_sort", "Materialize", "Pointer_join"}

// metricWorld turns a world name into a metric-name suffix.
func metricWorld(w string) string { return strings.ReplaceAll(w, "/", "_") }

// tracedRun measures the layers. After the references and one set-up it
// runs one request sequence (a warm-up of every pool query, then the
// workload's stream) three times, resetting the cache before each pass:
//
//	a. over HTTP under the workload's load model, with the server's
//	   metrics on, for queue waits, sheds and generator lateness;
//	b. through Server.Handler().ServeHTTP on an in-memory recorder, for
//	   handler time without transport, and Go runtime counters;
//	c. through each layer's public function in the order
//	   Server.optimizeOne calls them, each call in a span.
//
// Then it times one uncached search per distinct OODB pool query with
// per-rule timing on, and the set-up layers (prairielang, p2v) on their
// own. Every answer of every pass is checked.
func tracedRun(ctx context.Context, wl *workload, dsl string, oracle map[string]int, seed int64, budget time.Duration, prefix string) (*final, any, error) {
	refReg, err := server.DefaultRegistry(maxN, worldSeed, dsl)
	if err != nil {
		return nil, nil, err
	}
	refs, greedyTimes, err := computeRefs(wl, refReg, oracle)
	if err != nil {
		return nil, nil, err
	}
	mreg := obs.NewRegistry()
	e, err := newEnv(wl, dsl, senders(), mreg)
	if err != nil {
		return nil, nil, err
	}
	e.refs = refs
	defer e.close()
	counts := &tally{}

	// Pass a: HTTP under the load model.
	e.reset()
	if err := e.warm(ctx); err != nil {
		return nil, nil, err
	}
	share := budget / 4
	var stream, ssA []sample
	var ops []op
	if wl.Loop == "open" {
		ops = streamOps(wl, seed, wl.Rate, int(wl.Rate*share.Seconds()))
		ssA, err = openLoop(ctx, ops, senders(), e.send)
	} else {
		ssA, err = closedLoop(ctx, roundSource(wl, seed), wl.Clients, share, e.send)
		if err == nil && len(ssA) > 0 {
			ops = take(roundSource(wl, seed), ssA[len(ssA)-1].Op+1)
		}
	}
	e.srv.Router().Wait()
	if err != nil {
		return nil, nil, err
	}
	stream = optimizeOnly(ssA)
	counts.count(stream)
	seq := make([]op, 0, len(wl.Pool)+len(ops))
	for i := range wl.Pool {
		seq = append(seq, op{Kind: opOptimize, Q: i})
	}
	seq = append(seq, ops...)
	firstStream := len(wl.Pool)

	// Pass b: the handler alone.
	e.reset()
	handleUS, mem, err := e.handlerPass(seq, counts)
	if err != nil {
		return nil, nil, err
	}

	// Pass c: the layers, each call in a span.
	e.reset()
	rp := &replayer{e: e, rec: newRecorder(), counts: counts, execOps: map[string]float64{}}
	cache0, router0 := e.srv.Cache().Snapshot(), e.srv.Router().Snapshot()
	for i, o := range seq {
		if err := rp.do(ctx, i, o); err != nil {
			return nil, nil, err
		}
	}
	e.srv.Router().Wait()
	cache1, router1 := e.srv.Cache().Snapshot(), e.srv.Router().Snapshot()
	spans := rp.rec.snapshot()

	rules, err := ruleTiming(wl, e.reg, budget/4)
	if err != nil {
		return nil, nil, err
	}
	setupLayers, err := timeSetupLayers(dsl)
	if err != nil {
		return nil, nil, err
	}

	m := map[string]metric{}
	self := selfTimes(spans)
	acct := account(spans, self, firstStream, stream, handleUS[firstStream:])
	layerMetrics(m, spans)
	m["server.handle_us.p50"] = metric{quantile(sorted(handleUS), 0.5), "us"}
	m["server.handle_us.p99"] = metric{tail(sorted(handleUS), 0.99).Value, "us"}
	m["server.queue_wait_us.p99"] = metric{mreg.Histogram("prairie_server_queue_wait_seconds", nil).Quantile(0.99) * 1e6, "us"}
	m["server.shed"] = metric{float64(mreg.Counter("prairie_server_shed_queue_full_total").Value() +
		mreg.Counter("prairie_server_shed_queue_wait_total").Value()), "count"}
	m["wire.resp_bytes"] = metric{mean(rp.respBytes), "bytes"}
	lookups := (cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses)
	m["plancache.hit_ratio"] = metric{float64(cache1.Hits-cache0.Hits) / float64(max(lookups, 1)), "ratio"}
	m["plancache.evictions"] = metric{float64(cache1.Evictions - cache0.Evictions), "count"}
	m["plancache.flight_waits"] = metric{float64(cache1.FlightWaits - cache0.FlightWaits), "count"}
	m["plancache.entries"] = metric{float64(cache1.Entries), "count"}
	st := rp.search
	m["volcano.groups"] = metric{float64(st.Groups), "count"}
	m["volcano.exprs"] = metric{float64(st.Exprs), "count"}
	m["volcano.trans_fired"] = metric{float64(st.TransFired), "count"}
	m["volcano.impl_fired"] = metric{float64(st.ImplFired), "count"}
	m["volcano.costed_plans"] = metric{float64(st.CostedPlans), "count"}
	m["volcano.pruned"] = metric{float64(st.Pruned), "count"}
	m["volcano.warm_seeds"] = metric{float64(st.WarmSeeds), "count"}
	m["volcano.prune_ratio"] = metric{float64(st.Pruned) / float64(max(st.CostedPlans, 1)), "ratio"}
	for _, w := range []string{wPrairie, wVolcano} {
		m["volcano.trans_ms."+metricWorld(w)] = metric{rules.TransMS[w], "ms"}
		m["volcano.impl_ms."+metricWorld(w)] = metric{rules.ImplMS[w], "ms"}
	}
	var greedyUS, greedyRatio []float64
	for i, d := range greedyTimes {
		greedyUS = append(greedyUS, float64(d.Nanoseconds())/1e3)
		if refs[i].GreedyOK {
			greedyRatio = append(greedyRatio, refs[i].GreedyCost/refs[i].FullCost)
		}
	}
	m["volcano.greedy_us.p50"] = metric{median(greedyUS), "us"}
	m["volcano.greedy_cost_ratio"] = metric{geomean(greedyRatio), "ratio"}
	m["volcano.routed_greedy"] = metric{float64(router1.RoutedGreedy - router0.RoutedGreedy), "count"}
	m["volcano.refined"] = metric{float64(router1.Refined - router0.Refined), "count"}
	m["volcano.refine_wins"] = metric{float64(router1.RefineWins - router0.RefineWins), "count"}
	m["volcano.refine_stale"] = metric{float64(router1.RefineStale - router0.RefineStale), "count"}
	execN := float64(max(rp.execN, 1))
	m["exec.rows_out"] = metric{float64(rp.rowsOut) / execN, "rows"}
	for _, a := range execAlgorithms {
		m["exec.op_ms."+a] = metric{rp.execOps[a] / execN, "ms"}
	}
	for k, v := range setupLayers {
		m[k] = v
	}
	m["go.allocs_per_op"] = metric{mem.allocs, "count"}
	m["go.bytes_per_op"] = metric{mem.bytes, "bytes"}
	m["go.gc_cycles"] = metric{mem.gcs, "count"}
	m["go.gc_pause_ms"] = metric{mem.pauseMS, "ms"}
	var lates []float64
	var first, last time.Duration
	for i, s := range stream {
		lates = append(lates, s.late())
		if i == 0 || s.Due < first {
			first = s.Due
		}
		last = max(last, s.End)
	}
	m["loadgen.late_ms.p99"] = metric{tail(sorted(lates), 0.99).Value, "ms"}
	m["loadgen.tail_ms"] = metric{windowTail(latencies(stream), wl.TailQ).Value, "ms"}
	m["loadgen.achieved_rps"] = metric{float64(len(stream)) / max(last-first, time.Millisecond).Seconds(), "req/s"}
	m["loadgen.samples"] = metric{float64(len(stream)), "count"}
	m["trace.request_us.p50"] = metric{acct.TracedP50US, "us"}
	m["trace.overhead_us"] = metric{acct.TracedMeanUS - acct.HandlerMeanUS, "us"}
	m["trace.transport_us"] = metric{acct.ClientMeanUS - acct.HandlerMeanUS, "us"}
	m["trace.coverage"] = metric{acct.Coverage, "ratio"}

	if err := writeJSON(prefix+".spans.json", spans); err != nil {
		return nil, nil, err
	}
	if err := writeJSON(prefix+".rules.json", rules); err != nil {
		return nil, nil, err
	}
	details := map[string]any{"accounting": acct, "plancache_hit_ratio_base": fmt.Sprintf("%d lookups in the layer replay", lookups),
		"span_file": prefix + ".spans.json", "top_rules": rules.top(8)}
	return &final{Correct: true, Attempted: counts.attempted, Failed: counts.attempted - counts.answered, Metrics: m}, details, nil
}

func (t *tally) add(out outcome) {
	t.attempted++
	if out == outOK {
		t.answered++
	}
}

func (t *tally) count(ss []sample) {
	for _, s := range ss {
		t.add(s.Out)
	}
}

// reset lets background refinements finish and starts a new cache
// epoch, so each pass begins cold.
func (e *env) reset() {
	e.srv.Router().Wait()
	e.srv.Cache().Invalidate()
}

// memCounters are Go runtime counters over a pass, per optimize request
// where the name says so.
type memCounters struct{ allocs, bytes, gcs, pauseMS float64 }

// handlerPass sends seq through the server's handler on an in-memory
// recorder and returns each optimize request's handler time in µs.
func (e *env) handlerPass(seq []op, counts *tally) ([]float64, memCounters, error) {
	h := e.srv.Handler()
	var us []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, o := range seq {
		path, body := "/v1/invalidate", []byte(nil)
		if o.Kind == opOptimize {
			path, body = "/v1/optimize", e.bodies[o.Q]
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rr := httptest.NewRecorder()
		began := time.Now()
		h.ServeHTTP(rr, req)
		d := time.Since(began)
		if o.Kind != opOptimize {
			continue
		}
		us = append(us, float64(d.Nanoseconds())/1e3)
		var a answer
		res, err := classify(rr.Code, rr.Body.Bytes(), &a)
		if err != nil {
			return nil, memCounters{}, err
		}
		if res.Out == outOK && a.Degraded {
			res.Out = outDegraded
		}
		if res.Out == outOK {
			if err := check(e.wl, e.wl.Pool[o.Q], e.refs[o.Q], a); err != nil {
				return nil, memCounters{}, err
			}
		}
		counts.add(res.Out)
	}
	e.srv.Router().Wait()
	runtime.ReadMemStats(&m1)
	n := float64(max(len(us), 1))
	return us, memCounters{
		allocs:  float64(m1.Mallocs-m0.Mallocs) / n,
		bytes:   float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		gcs:     float64(m1.NumGC - m0.NumGC),
		pauseMS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}, nil
}

// searchTotals sums the search counters of the replayed misses.
type searchTotals struct {
	Groups, Exprs, TransFired, ImplFired, CostedPlans, Pruned, WarmSeeds int
}

// replayer runs requests through the layers' public functions.
type replayer struct {
	e         *env
	rec       *recorder
	counts    *tally
	search    searchTotals
	respBytes []float64
	execOps   map[string]float64 // self ms per algorithm, summed
	execN     int
	rowsOut   int
}

// do replays one op as request id. The calls and their order follow
// Server.optimizeOne: decode, build, optimize, plan encode, execute,
// response encode. The fingerprint is timed on its own just before the
// optimize call, which computes it again internally.
func (p *replayer) do(ctx context.Context, id int, o op) error {
	e, rec := p.e, p.rec
	if o.Kind == opInvalidate {
		sp := rec.begin("plancache.invalidate", "", -1, id)
		e.srv.Cache().Invalidate()
		rec.end(sp)
		return nil
	}
	q := e.wl.Pool[o.Q]
	root := rec.begin("request", q.World, -1, id)
	defer rec.end(root)

	sp := rec.begin("wire.decode", "", root, id)
	var req server.OptimizeRequest
	dec := json.NewDecoder(bytes.NewReader(e.bodies[o.Q]))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	rec.end(sp)
	if err != nil {
		return err
	}
	world, ok := e.reg.Lookup(req.Ruleset)
	if !ok {
		return fmt.Errorf("world %s not registered", req.Ruleset)
	}
	tier, err := volcano.ParseTier(req.Tier)
	if err != nil {
		return err
	}

	sp = rec.begin("qgen.build", world.Name, root, id)
	tree, want, err := world.Build(req.Query)
	rec.end(sp)
	if err != nil {
		return err
	}

	sp = rec.begin("volcano.fingerprint", world.Name, root, id)
	world.RS.Fingerprint(tree)
	rec.end(sp)

	opt := volcano.NewOptimizer(world.RS)
	opt.Opts.Cache = e.srv.Cache()
	opt.Opts.Router = e.srv.Router()
	opt.Opts.Tier = tier
	opt.Opts.OnRefine = func(out volcano.RefineOutcome) {
		rec.background("volcano.refine", world.Name, root, id, out.Elapsed)
	}
	octx, cancel := context.WithTimeout(ctx, 5*time.Second)
	sp = rec.begin("volcano.optimize", world.Name, root, id)
	plan, err := opt.OptimizeContext(octx, tree, want)
	rec.end(sp)
	cancel()
	st := opt.Stats
	switch {
	case err != nil:
		p.counts.add(outStatus)
		return nil
	case st.CacheHits > 0 && st.CacheMisses == 0:
		rec.rename(sp, "plancache.hit")
	case st.Tier == volcano.TierGreedy.String():
		rec.rename(sp, "volcano.greedy")
		p.addSearch(st)
	default:
		rec.rename(sp, "volcano.search")
		p.addSearch(st)
	}
	if st.Degraded {
		p.counts.add(outDegraded)
		return nil
	}
	a := answer{PlanText: plan.String(), Cost: plan.Cost(world.RS.Class)}

	sp = rec.begin("wire.encode_plan", "", root, id)
	pn, err := server.EncodePlan(plan)
	rec.end(sp)
	if err != nil {
		return err
	}

	var sum *server.ExecSummary
	if req.Execute {
		if sum, err = p.execute(world, plan, root, id); err != nil {
			return err
		}
		a.Exec = &struct {
			Rows int `json:"rows"`
		}{sum.Rows}
	}
	if err := check(e.wl, q, e.refs[o.Q], a); err != nil {
		return err
	}

	sp = rec.begin("wire.encode_response", "", root, id)
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(&server.OptimizeResponse{
		Ruleset: world.Name, Query: req.Query, PlanText: a.PlanText, Plan: pn, Cost: a.Cost,
		CacheHit: st.CacheHits > 0 && st.CacheMisses == 0, PlannerTier: tier.String(),
		Stats: server.StatsSummary{Groups: st.Groups, Exprs: st.Exprs, CostedPlan: st.CostedPlans},
		Exec:  sum,
	})
	rec.end(sp)
	if err != nil {
		return err
	}
	p.respBytes = append(p.respBytes, float64(buf.Len()))
	p.counts.add(outOK)
	return nil
}

func (p *replayer) addSearch(st *volcano.Stats) {
	s := &p.search
	s.Groups += st.Groups
	s.Exprs += st.Exprs
	s.TransFired += sumCounts(st.TransFired)
	s.ImplFired += sumCounts(st.ImplFired)
	s.CostedPlans += st.CostedPlans
	s.Pruned += st.Pruned
	s.WarmSeeds += st.WarmSeeds
}

func sumCounts(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// execute compiles and runs a plan the way the server does for
// "execute": true, with per-operator statistics on.
func (p *replayer) execute(world *server.World, plan *volcano.PExpr, root, id int) (*server.ExecSummary, error) {
	rec := p.rec
	comp := exec.NewCompiler(world.ExecDB(execSeed, execRows), world.ExecProps)
	stats := &exec.ExecStats{}
	comp.Opts = exec.ExecOptions{Workers: runtime.GOMAXPROCS(0), Stats: stats}
	sp := rec.begin("exec.compile", world.Name, root, id)
	it, err := comp.Compile(plan.ToExpr())
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("exec.run", world.Name, root, id)
	res, err := exec.Run(it)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	ops := stats.Report()
	incl := make([]float64, len(ops))
	for i, o := range ops {
		incl[i] = float64(o.OpenUS+o.NextUS) / 1e3
	}
	selfMS := append([]float64(nil), incl...)
	for _, o := range ops {
		if o.Parent >= 0 {
			selfMS[o.Parent] -= incl[o.ID]
		}
	}
	for i, o := range ops {
		p.execOps[o.Op] += max(selfMS[i], 0)
	}
	p.execN++
	p.rowsOut += len(res.Rows)
	return &server.ExecSummary{Rows: len(res.Rows), Workers: comp.Opts.Workers}, nil
}

// layerMetrics derives the per-call percentiles from the spans.
func layerMetrics(m map[string]metric, spans []span) {
	us := map[string][]float64{}
	search := map[string][]float64{}
	encode := map[int]float64{}
	for _, s := range spans {
		d := float64(s.dur().Nanoseconds()) / 1e3
		switch s.Name {
		case "volcano.search", "volcano.refine":
			search[s.World] = append(search[s.World], d/1e3)
		case "wire.encode_plan", "wire.encode_response":
			encode[s.Req] += d
		}
		us[s.Name] = append(us[s.Name], d)
	}
	p50 := func(name string) float64 {
		if len(us[name]) == 0 {
			return 0
		}
		return median(us[name])
	}
	var enc []float64
	for _, v := range encode {
		enc = append(enc, v)
	}
	m["wire.decode_us.p50"] = metric{p50("wire.decode"), "us"}
	m["wire.encode_us.p50"] = metric{zeroIfEmpty(enc), "us"}
	m["qgen.build_us.p50"] = metric{p50("qgen.build"), "us"}
	m["volcano.fingerprint_us.p50"] = metric{p50("volcano.fingerprint"), "us"}
	m["plancache.hit_us.p50"] = metric{p50("plancache.hit"), "us"}
	m["exec.compile_us.p50"] = metric{p50("exec.compile"), "us"}
	m["exec.run_ms.p50"] = metric{p50("exec.run") / 1e3, "ms"}
	for _, w := range worldNames {
		m["volcano.search_ms."+metricWorld(w)] = metric{zeroIfEmpty(search[w]), "ms"}
	}
}

func zeroIfEmpty(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// accounting splits the stream requests' mean time: the client's view
// (HTTP, pass a) is the handler (pass b) plus transport; the traced
// request (pass c) is the layers' self times plus what no layer span
// covers, and exceeds the handler by the tracing overhead.
type accounting struct {
	Requests int `json:"requests"`
	// UntracedP50US is the HTTP pass's p50 (from due time, under the
	// load model), to hold against TracedP50US.
	UntracedP50US  float64            `json:"untraced_p50_us"`
	ClientMeanUS   float64            `json:"client_mean_us"`
	HandlerMeanUS  float64            `json:"handler_mean_us"`
	TracedMeanUS   float64            `json:"traced_mean_us"`
	TracedP50US    float64            `json:"traced_p50_us"`
	LayerSelfUS    map[string]float64 `json:"layer_self_mean_us"`
	UnattributedUS float64            `json:"unattributed_mean_us"`
	// Coverage is the share of the traced request time the layer spans
	// account for; the rest is UnattributedUS.
	Coverage float64 `json:"coverage"`
}

func account(spans []span, self []time.Duration, firstStream int, client []sample, handlerUS []float64) accounting {
	a := accounting{LayerSelfUS: map[string]float64{}}
	var traced []float64
	var rootSelf float64
	for i, s := range spans {
		if s.Req < firstStream || s.Background {
			continue
		}
		us := float64(self[i].Nanoseconds()) / 1e3
		if s.Parent < 0 {
			if s.Name != "request" {
				continue
			}
			traced = append(traced, float64(s.dur().Nanoseconds())/1e3)
			rootSelf += us
			continue
		}
		a.LayerSelfUS[s.Name] += us
	}
	a.Requests = len(traced)
	n := float64(max(len(traced), 1))
	layers := 0.0
	for k, v := range a.LayerSelfUS {
		a.LayerSelfUS[k] = v / n
		layers += v / n
	}
	a.UnattributedUS = rootSelf / n
	a.TracedMeanUS = mean(traced)
	if len(traced) > 0 {
		a.TracedP50US = median(traced)
	}
	if a.TracedMeanUS > 0 {
		a.Coverage = layers / a.TracedMeanUS
	}
	var cl []float64
	for _, s := range client {
		if s.Out == outOK {
			cl = append(cl, float64((s.End-s.Start).Nanoseconds())/1e3)
		}
	}
	if len(client) > 0 {
		a.UntracedP50US = median(latencies(client)) * 1e3
	}
	a.ClientMeanUS = mean(cl)
	a.HandlerMeanUS = mean(handlerUS)
	return a
}

// ruleReport is the per-rule time of the OODB pair, from one uncached
// search per distinct OODB pool query with obs.Observer{RuleTiming}.
type ruleReport struct {
	Queries int                           `json:"queries"`
	TransMS map[string]float64            `json:"trans_ms"`
	ImplMS  map[string]float64            `json:"impl_ms"`
	Rules   map[string]map[string]float64 `json:"rules_ms"`
}

func ruleTiming(wl *workload, reg *server.Registry, limit time.Duration) (*ruleReport, error) {
	r := &ruleReport{TransMS: map[string]float64{}, ImplMS: map[string]float64{}, Rules: map[string]map[string]float64{}}
	seen := map[string]bool{}
	began := time.Now()
	for _, q := range wl.Pool {
		if (q.World != wPrairie && q.World != wVolcano) || seen[q.String()] || time.Since(began) > limit {
			continue
		}
		seen[q.String()] = true
		w, _ := reg.Lookup(q.World)
		tree, want, err := w.Build(q.Spec)
		if err != nil {
			return nil, err
		}
		opt := volcano.NewOptimizer(w.RS)
		opt.Opts.Obs = &obs.Observer{RuleTiming: true}
		if _, err := opt.OptimizeContext(context.Background(), tree, want); err != nil {
			return nil, fmt.Errorf("rule timing %s: %w", q, err)
		}
		r.Queries++
		if r.Rules[q.World] == nil {
			r.Rules[q.World] = map[string]float64{}
		}
		for name, d := range opt.Stats.TransTime {
			ms := float64(d.Nanoseconds()) / 1e6
			r.TransMS[q.World] += ms
			r.Rules[q.World]["trans:"+name] += ms
		}
		for name, d := range opt.Stats.ImplTime {
			ms := float64(d.Nanoseconds()) / 1e6
			r.ImplMS[q.World] += ms
			r.Rules[q.World]["impl:"+name] += ms
		}
	}
	return r, nil
}

// top lists each world's n most expensive rules.
func (r *ruleReport) top(n int) map[string][]string {
	out := map[string][]string{}
	for w, rules := range r.Rules {
		names := make([]string, 0, len(rules))
		for k := range rules {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool { return rules[names[i]] > rules[names[j]] })
		for _, k := range names[:min(n, len(names))] {
			out[w] = append(out[w], fmt.Sprintf("%s %.2fms", k, rules[k]))
		}
	}
	return out
}

// timeSetupLayers times the rule-compilation front end on its own: the
// DSL parser and compiler, and p2v on each Prairie-specified world. Each
// call runs five times and the median is reported.
func timeSetupLayers(dsl string) (map[string]metric, error) {
	const reps = 5
	var parse, compile []float64
	tr := map[string][]float64{}
	rulesOut := 0
	ms := func(began time.Time) float64 { return float64(time.Since(began).Nanoseconds()) / 1e6 }
	for k := 0; k < reps; k++ {
		began := time.Now()
		spec, err := prairielang.Parse(dsl)
		parse = append(parse, ms(began))
		if err != nil {
			return nil, err
		}
		began = time.Now()
		dslRules, err := prairielang.Compile(spec, server.DSLHelpers())
		compile = append(compile, ms(began))
		if err != nil {
			return nil, err
		}
		oodbRules, err := oodb.New(qgen.Catalog(maxN, worldSeed, false)).PrairieRules()
		if err != nil {
			return nil, err
		}
		relRules := relopt.New(catalog.Generate(catalog.DefaultGen(maxN, worldSeed, true))).PrairieRules()
		rulesOut = 0
		for _, in := range []struct {
			world string
			rs    *core.RuleSet
		}{{wPrairie, oodbRules}, {wRelational, relRules}, {wDSL, dslRules}} {
			began = time.Now()
			vrs, _, err := p2v.Translate(in.rs)
			tr[in.world] = append(tr[in.world], ms(began))
			if err != nil {
				return nil, err
			}
			rulesOut += len(vrs.Trans) + len(vrs.Impls) + len(vrs.Enforcers)
		}
	}
	m := map[string]metric{
		"prairielang.parse_ms":   {median(parse), "ms"},
		"prairielang.compile_ms": {median(compile), "ms"},
		"p2v.rules_out":          {float64(rulesOut), "count"},
	}
	for w, v := range tr {
		m["p2v.translate_ms."+metricWorld(w)] = metric{median(v), "ms"}
	}
	return m, nil
}
