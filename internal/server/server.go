// Package server exposes the optimizer as an HTTP/JSON service: a
// registry of prepared rule sets ("worlds"), per-request budget classes
// mapped onto volcano.Budget, one cross-query plan cache shared by every
// request, and the observability surface of internal/obs. Robustness is
// the point of the package: admission control with a bounded in-flight
// semaphore and a queue-wait deadline (load is shed with 429/503 +
// Retry-After, never a partial plan), per-request timeouts propagated
// through OptimizeContext (over-deadline searches degrade gracefully and
// say so), panic isolation per request, and graceful shutdown that
// drains in-flight optimizations before the process exits.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prairie/internal/cluster"
	"prairie/internal/exec"
	"prairie/internal/obs"
	"prairie/internal/volcano"
)

// Config tunes a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// Registry holds the servable worlds (required).
	Registry *Registry
	// CacheSize is the shared plan-cache capacity (entries); 0 = 512,
	// negative = disabled.
	CacheSize int
	// MaxInflight bounds concurrently running optimizations; 0 = 2 ×
	// GOMAXPROCS. Requests beyond it queue.
	MaxInflight int
	// MaxQueue bounds queued (admitted-but-waiting) requests; beyond it
	// requests are shed immediately with 429. 0 = 4 × MaxInflight.
	MaxQueue int
	// QueueWait is how long a queued request may wait for a slot before
	// being shed with 503. 0 = 250ms.
	QueueWait time.Duration
	// DefaultTimeout applies when a request names none; 0 = 5s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request timeouts; 0 = 30s.
	MaxTimeout time.Duration
	// MaxBatchWorkers caps the per-batch worker count; 0 = GOMAXPROCS.
	MaxBatchWorkers int
	// MaxBatchItems caps items per batch request; 0 = 256.
	MaxBatchItems int
	// Budgets extends (and can override) the built-in budget classes.
	Budgets map[string]volcano.Budget
	// Router tunes the adaptive tier router behind `"tier": "auto"`
	// requests (see volcano.RouterConfig); the zero value selects the
	// engine defaults.
	Router volcano.RouterConfig
	// Obs attaches metrics/tracing; nil serves /metrics from an empty
	// registry.
	Obs *obs.Observer
	// Flight is the request flight recorder behind /v1/debug/requests.
	// nil — or a zero-capacity recorder — disables all per-request
	// recording and phase timing, keeping the request path byte-identical
	// to a build without the recorder.
	Flight *obs.FlightRecorder
	// Log receives structured request/drain/refinement logs; nil
	// disables logging.
	Log *obs.Logger
	// ExecRows sizes each generated table of a world's demo database
	// when a request sets "execute": true; 0 = 64.
	ExecRows int
	// ExecSeed seeds the generated demo data; 0 = 101.
	ExecSeed int64
	// Cluster joins this server to a static peer group sharing one
	// logical plan cache (see internal/cluster): each canonical query
	// fingerprint gets an owning node on a consistent-hash ring, local
	// misses ask the owner before optimizing, and invalidations fan
	// out. nil (the default) keeps the server single-node and its
	// request path byte-identical to a build without the cluster layer.
	Cluster *cluster.Config
}

func (c *Config) maxInflight() int {
	if c.MaxInflight > 0 {
		return c.MaxInflight
	}
	return 2 * runtime.GOMAXPROCS(0)
}

func (c *Config) maxQueue() int {
	if c.MaxQueue > 0 {
		return c.MaxQueue
	}
	return 4 * c.maxInflight()
}

func (c *Config) queueWait() time.Duration {
	if c.QueueWait > 0 {
		return c.QueueWait
	}
	return 250 * time.Millisecond
}

func (c *Config) defaultTimeout() time.Duration {
	if c.DefaultTimeout > 0 {
		return c.DefaultTimeout
	}
	return 5 * time.Second
}

func (c *Config) maxTimeout() time.Duration {
	if c.MaxTimeout > 0 {
		return c.MaxTimeout
	}
	return 30 * time.Second
}

func (c *Config) maxBatchWorkers() int {
	if c.MaxBatchWorkers > 0 {
		return c.MaxBatchWorkers
	}
	return runtime.GOMAXPROCS(0)
}

func (c *Config) maxBatchItems() int {
	if c.MaxBatchItems > 0 {
		return c.MaxBatchItems
	}
	return 256
}

func (c *Config) execRows() int {
	if c.ExecRows > 0 {
		return c.ExecRows
	}
	return 64
}

func (c *Config) execSeed() int64 {
	if c.ExecSeed != 0 {
		return c.ExecSeed
	}
	return 101
}

func (c *Config) cacheSize() int {
	switch {
	case c.CacheSize > 0:
		return c.CacheSize
	case c.CacheSize < 0:
		return 0
	}
	return 512
}

// defaultBudgets are the built-in budget classes. "default" runs
// unbounded (modulo the request timeout); "interactive" trades
// optimality for tail latency; "batch" allows a long search; "tiny" is
// deliberately small so degraded behaviour is reachable in tests.
func defaultBudgets() map[string]volcano.Budget {
	return map[string]volcano.Budget{
		"default":     {},
		"interactive": {Timeout: 200 * time.Millisecond, MaxExprs: 200_000},
		"batch":       {Timeout: 2 * time.Second},
		"tiny":        {MaxExprs: 400},
	}
}

// Server is the optimizer service.
type Server struct {
	cfg     Config
	budgets map[string]volcano.Budget
	cache   *volcano.PlanCache
	router  *volcano.Router
	sem     chan struct{}
	waiting atomic.Int64
	// inflightMu guards inflightN: requests past the draining gate, which
	// Drain waits out. The draining check and the increment happen under
	// one lock so a request can never slip in after Drain observed zero.
	inflightMu   sync.Mutex
	inflightCond *sync.Cond
	inflightN    int
	draining     atomic.Bool
	mux          *http.ServeMux
	started      time.Time

	// cluster is the node's membership when Config.Cluster is set (nil
	// single-node); remotes holds the per-world RemoteCache hooks and
	// shardGauges the per-shard exposition gauges refreshed at scrape
	// time.
	cluster     *cluster.Node
	remotes     map[string]volcano.RemoteCache
	shardGauges []shardGauge

	// metrics (nil registry → nil metrics, every sink is nil-safe)
	mRequests  *obs.Counter
	mShed429   *obs.Counter
	mShed503   *obs.Counter
	mErrors    *obs.Counter
	mPanics    *obs.Counter
	mDegraded  *obs.Counter
	mHits      *obs.Counter
	mDrained   *obs.Counter
	hLatency   *obs.Histogram
	hQueueWait *obs.Histogram
	// hPhase holds the per-phase latency histograms
	// (prairie_phase_<phase>_seconds); populated only with a metrics
	// registry, and fed only for flight-recorded requests — phase
	// timing is off whenever the recorder is.
	hPhase map[obs.Phase]*obs.Histogram
}

// New builds a Server over cfg.Registry.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil || len(cfg.Registry.Names()) == 0 {
		return nil, errors.New("server: config needs a non-empty Registry")
	}
	budgets := defaultBudgets()
	for name, b := range cfg.Budgets {
		budgets[name] = b
	}
	s := &Server{
		cfg:     cfg,
		budgets: budgets,
		cache:   volcano.NewPlanCache(cfg.cacheSize()),
		router:  volcano.NewRouterObserved(cfg.Router, cfg.Obs.MetricsOrNil()),
		sem:     make(chan struct{}, cfg.maxInflight()),
	}
	s.inflightCond = sync.NewCond(&s.inflightMu)
	s.started = time.Now()
	if reg := cfg.Obs.MetricsOrNil(); reg != nil {
		s.mRequests = reg.Counter("prairie_server_requests_total")
		s.mShed429 = reg.Counter("prairie_server_shed_queue_full_total")
		s.mShed503 = reg.Counter("prairie_server_shed_queue_wait_total")
		s.mErrors = reg.Counter("prairie_server_errors_total")
		s.mPanics = reg.Counter("prairie_server_panics_total")
		s.mDegraded = reg.Counter("prairie_server_degraded_total")
		s.mHits = reg.Counter("prairie_server_cache_hits_total")
		s.mDrained = reg.Counter("prairie_server_drain_refused_total")
		s.hLatency = reg.Histogram("prairie_server_optimize_seconds", nil)
		s.hQueueWait = reg.Histogram("prairie_server_queue_wait_seconds", nil)
		s.hPhase = map[obs.Phase]*obs.Histogram{
			obs.PhaseAdmission: reg.Histogram("prairie_phase_admission_seconds", nil),
			obs.PhaseCache:     reg.Histogram("prairie_phase_cache_seconds", nil),
			obs.PhaseGreedy:    reg.Histogram("prairie_phase_greedy_seconds", nil),
			obs.PhaseFull:      reg.Histogram("prairie_phase_full_seconds", nil),
			obs.PhaseRefine:    reg.Histogram("prairie_phase_refine_seconds", nil),
			obs.PhaseExec:      reg.Histogram("prairie_phase_exec_seconds", nil),
		}
	}
	if reg := cfg.Obs.MetricsOrNil(); reg != nil {
		// One gauge pair per cache shard; the count is fixed at
		// construction, the values refresh at scrape time.
		for i := range s.cache.Shards() {
			shard := fmt.Sprintf("%d", i)
			s.shardGauges = append(s.shardGauges, shardGauge{
				entries:   reg.Gauge(obs.Label("prairie_plancache_shard_entries", "shard", shard)),
				evictions: reg.Gauge(obs.Label("prairie_plancache_shard_evictions", "shard", shard)),
			})
		}
	}
	if cfg.Cluster != nil {
		node, err := cluster.New(*cfg.Cluster, clusterBackend{s: s}, cfg.Obs.MetricsOrNil())
		if err != nil {
			return nil, err
		}
		s.cluster = node
		s.remotes = make(map[string]volcano.RemoteCache)
		for _, name := range cfg.Registry.Names() {
			world, _ := cfg.Registry.Lookup(name)
			s.remotes[name] = &remoteAdapter{node: node, world: world}
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/optimize", s.guard(s.handleOptimize))
	s.mux.HandleFunc("/v1/batch", s.guard(s.handleBatch))
	s.mux.HandleFunc("/v1/rulesets", s.guard(s.handleRulesets))
	s.mux.HandleFunc("/v1/invalidate", s.guard(s.handleInvalidate))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if s.cluster != nil {
		// The peer endpoints authenticate themselves with the shared
		// cluster secret (cluster.AuthHeader); they deliberately bypass
		// s.guard — a peer get is bounded cache work, not an
		// optimization, and parking it behind the admission queue would
		// add local queue wait to every remote fill and let one
		// saturated node stall its peers' misses.
		s.mux.Handle(cluster.PathPrefix, s.cluster.Handler())
	}
	// Observability exposition: delegate to the obs mux so the service
	// surface and the standalone exposition stay identical; the wrapper
	// publishes the point-in-time shard/cluster gauges first.
	om := obs.NewMux(cfg.Obs.MetricsOrNil(), cfg.Obs.TracerOrNil(), cfg.Flight)
	oh := http.Handler(om)
	if len(s.shardGauges) > 0 || s.cluster != nil {
		oh = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.refreshGauges()
			om.ServeHTTP(w, r)
		})
	}
	paths := []string{"/metrics", "/vars", "/trace", "/debug/pprof/"}
	if cfg.Flight.Enabled() {
		paths = append(paths, "/v1/debug/requests", "/v1/debug/requests/")
	}
	for _, p := range paths {
		s.mux.Handle(p, oh)
	}
	return s, nil
}

// Close releases the server's cluster membership (outstanding leases
// are abandoned, in-flight offers drained); call it after Drain on
// shutdown. Safe on a single-node server.
func (s *Server) Close() {
	if s.cluster != nil {
		s.cluster.Close()
	}
}

// ClusterStatus snapshots the cluster membership; nil single-node.
func (s *Server) ClusterStatus() *cluster.Status {
	if s.cluster == nil {
		return nil
	}
	st := s.cluster.Status()
	return &st
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the shared plan cache (tests and the invalidate
// endpoint).
func (s *Server) Cache() *volcano.PlanCache { return s.cache }

// Router exposes the shared tier router: tests and benches use its
// Wait/Snapshot to synchronize with background refinements and read
// the routing mix. In-flight refiners are deliberately not drained by
// Drain — they only ever improve the in-memory cache, so process exit
// may simply abandon them.
func (s *Server) Router() *volcano.Router { return s.router }

// BeginDrain gates new work off: subsequent optimize/batch requests are
// refused with 503 and /healthz reports draining.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain begins draining and blocks until every in-flight request has
// been answered or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflightMu.Lock()
		for s.inflightN > 0 {
			s.inflightCond.Wait()
		}
		s.inflightMu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// The waiter goroutine exits once the last request finishes and
		// broadcasts; nothing holds it beyond that.
		return ctx.Err()
	}
}

// track counts a request into the drain set, refusing when draining.
// The check and increment share inflightMu so Drain can never observe
// zero while an admitted request is about to start.
func (s *Server) track() bool {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflightN++
	return true
}

func (s *Server) untrack() {
	s.inflightMu.Lock()
	s.inflightN--
	if s.inflightN == 0 {
		s.inflightCond.Broadcast()
	}
	s.inflightMu.Unlock()
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) shed(w http.ResponseWriter, code int, msg string, retryAfter time.Duration) {
	w.Header().Set("Retry-After", fmt.Sprintf("%d", int64(retryAfter.Seconds()+0.999)))
	writeJSON(w, code, errorBody{Error: msg, RetryAfterMS: retryAfter.Milliseconds()})
}

// guard wraps a handler with panic isolation: a panicking request is
// answered with 500 and counted, and never takes the process down.
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.mPanics.Inc()
				writeJSON(w, http.StatusInternalServerError,
					errorBody{Error: fmt.Sprintf("internal panic: %v", p)})
			}
		}()
		h(w, r)
	}
}

// admit implements admission control: a free slot is taken immediately;
// otherwise the request queues, bounded in count by MaxQueue (shed 429)
// and in time by QueueWait (shed 503). The returned release must be
// called when the optimization finishes; wait is how long the request
// queued before the outcome either way.
func (s *Server) admit(ctx context.Context) (release func(), wait time.Duration, code int, err error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0, 0, nil
	default:
	}
	if n := s.waiting.Add(1); n > int64(s.cfg.maxQueue()) {
		s.waiting.Add(-1)
		s.mShed429.Inc()
		return nil, 0, http.StatusTooManyRequests,
			fmt.Errorf("queue full (%d waiting)", n-1)
	}
	defer s.waiting.Add(-1)
	start := time.Now()
	t := time.NewTimer(s.cfg.queueWait())
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		wait = time.Since(start)
		s.hQueueWait.Observe(wait.Seconds())
		return func() { <-s.sem }, wait, 0, nil
	case <-t.C:
		s.mShed503.Inc()
		return nil, time.Since(start), http.StatusServiceUnavailable,
			fmt.Errorf("no slot within %s", s.cfg.queueWait())
	case <-ctx.Done():
		// Client gone; nothing useful to send, but the handler needs a
		// status. 503 keeps the semantics "not processed".
		return nil, time.Since(start), http.StatusServiceUnavailable, ctx.Err()
	}
}

// begin performs the shared request preamble: drain gate + admission.
// ok=false means the response has been written (and rec, when present,
// completed as shed).
func (s *Server) begin(w http.ResponseWriter, r *http.Request, rec *obs.RequestRecord) (release func(), ok bool) {
	s.mRequests.Inc()
	if !s.track() {
		s.mDrained.Inc()
		s.shed(w, http.StatusServiceUnavailable, "server draining", time.Second)
		s.finish(rec, http.StatusServiceUnavailable, "shed", "server draining")
		return nil, false
	}
	admitStart := time.Now()
	rel, wait, code, err := s.admit(r.Context())
	rec.SetAdmissionWait(admitStart, wait)
	if err != nil {
		s.untrack()
		s.shed(w, code, err.Error(), s.cfg.queueWait())
		s.finish(rec, code, "shed", err.Error())
		return nil, false
	}
	return func() {
		rel()
		s.untrack()
	}, true
}

// finish classifies and completes a flight record, feeds the per-phase
// latency histograms, and emits the structured request log. nil-safe;
// call it exactly once per recorded request, after the response is
// written.
func (s *Server) finish(rec *obs.RequestRecord, status int, outcome, errMsg string) {
	if rec == nil {
		return
	}
	rec.Status = status
	rec.Outcome = outcome
	rec.Error = errMsg
	s.cfg.Flight.Complete(rec)
	for _, sp := range rec.PhaseClock().Spans() {
		if sp.Phase == obs.PhaseRefine {
			// Refinements usually outlive the request; the refinement
			// callback observes their histogram when they land.
			continue
		}
		if h := s.hPhase[sp.Phase]; h != nil {
			h.Observe(float64(sp.DurUS) / 1e6)
		}
	}
	if lg := s.cfg.Log; lg != nil {
		kv := []any{"request_id", rec.ID, "endpoint", rec.Endpoint,
			"status", status, "outcome", outcome, "elapsed_us", rec.ElapsedUS}
		if errMsg != "" {
			kv = append(kv, "error", errMsg)
		}
		switch {
		case outcome == "error":
			lg.Error("request", kv...)
		case outcome != "ok":
			lg.Warn("request", kv...)
		default:
			lg.Debug("request", kv...)
		}
	}
}

// record begins the flight record of one request and stamps the
// correlation headers; nil when the recorder is disabled.
func (s *Server) record(w http.ResponseWriter, r *http.Request, endpoint string) *obs.RequestRecord {
	rec := s.cfg.Flight.Begin(r.Header.Get("traceparent"))
	if rec == nil {
		return nil
	}
	rec.Endpoint = endpoint
	w.Header().Set("X-Request-Id", rec.ID)
	w.Header().Set("Traceparent", rec.TraceParent())
	return rec
}

// OptimizeRequest is the wire request of /v1/optimize.
type OptimizeRequest struct {
	Ruleset string    `json:"ruleset"`
	Query   QuerySpec `json:"query"`
	// Budget names a budget class ("" = "default").
	Budget string `json:"budget,omitempty"`
	// Tier selects the planning tier: "full" (the default) runs the
	// complete branch-and-bound search; "greedy" answers with the
	// sub-millisecond greedy plan and never refines; "auto" answers
	// greedy-first and lets the adaptive router decide whether to
	// refine the cache entry with a background full search.
	Tier string `json:"tier,omitempty"`
	// TimeoutMS is the per-request deadline; 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IncludePlan asks for the full serialized plan tree in addition to
	// the textual rendering.
	IncludePlan bool `json:"include_plan,omitempty"`
	// Execute asks the server to also run the winning plan on the
	// world's generated demo database and report the executed row count
	// (worlds without a catalog refuse). With the flight recorder on,
	// the execution contributes per-operator runtime stats to the
	// request's record.
	Execute bool `json:"execute,omitempty"`
}

// StatsSummary is the per-request slice of volcano.Stats the service
// reports.
type StatsSummary struct {
	Groups     int `json:"groups"`
	Exprs      int `json:"exprs"`
	TransFired int `json:"trans_fired"`
	ImplFired  int `json:"impl_fired"`
	CostedPlan int `json:"costed_plans"`
}

// OptimizeResponse is the wire response of /v1/optimize.
type OptimizeResponse struct {
	Ruleset string    `json:"ruleset"`
	Query   QuerySpec `json:"query"`
	// PlanText is the compact functional rendering
	// ("Merge_sort(Nested_loops(...))"); IncludePlan adds the full
	// descriptor-bearing tree.
	PlanText     string    `json:"plan_text"`
	Plan         *PlanNode `json:"plan,omitempty"`
	Cost         float64   `json:"cost"`
	Degraded     bool      `json:"degraded,omitempty"`
	DegradeCause string    `json:"degrade_cause,omitempty"`
	DegradePath  string    `json:"degrade_path,omitempty"`
	CacheHit     bool      `json:"cache_hit"`
	// CacheOutcome is set only when the cluster layer served the plan:
	// "peer_fill" (fetched from the key's owning node) or "replica_hit"
	// (served from a local hot-key replica of a remotely-owned entry).
	// Always empty single-node, keeping the response byte-identical.
	CacheOutcome string `json:"cache_outcome,omitempty"`
	// PlannerTier reports which tier produced the plan ("full" or
	// "greedy"); Refined marks plans served from a cache entry
	// hot-swapped in by a background refinement. GreedyCost/FullCost
	// carry the measured cost pair when both are known (refined entries
	// and auto-routed synchronous runs).
	PlannerTier string       `json:"planner_tier"`
	Refined     bool         `json:"refined,omitempty"`
	GreedyCost  float64      `json:"greedy_cost,omitempty"`
	FullCost    float64      `json:"full_cost,omitempty"`
	ElapsedUS   int64        `json:"elapsed_us"`
	Stats       StatsSummary `json:"stats"`
	// Exec reports the executed plan's runtime when the request set
	// "execute": true.
	Exec *ExecSummary `json:"exec,omitempty"`
	// RequestID correlates the response with its flight record
	// (/v1/debug/requests/{id}); present only when the recorder is on.
	RequestID string `json:"request_id,omitempty"`
}

// ExecSummary is the wire rendering of an executed plan's runtime.
type ExecSummary struct {
	Rows int `json:"rows"`
	// Workers is always 1: the executor is serial. The field stays on
	// the wire because the repository benchmark (perfbench/) fills it.
	Workers   int   `json:"workers"`
	ElapsedUS int64 `json:"elapsed_us"`
}

// timeout resolves and clamps the effective request deadline.
func (s *Server) timeout(ms int64) time.Duration {
	d := s.cfg.defaultTimeout()
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if max := s.cfg.maxTimeout(); d > max {
		d = max
	}
	return d
}

// optimizeOne runs one prepared request on a fresh optimizer (the
// optimizer is single-use; the rule set, cache and observer are the
// shared state).
func (s *Server) optimizeOne(ctx context.Context, world *World, req OptimizeRequest, rec *obs.RequestRecord) (*OptimizeResponse, int, error) {
	budget, ok := s.budgets[budgetName(req.Budget)]
	if !ok {
		return nil, http.StatusBadRequest, fmt.Errorf("unknown budget class %q", req.Budget)
	}
	tier, err := volcano.ParseTier(req.Tier)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	tree, want, err := world.Build(req.Query)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	rec.SetRequestInfo(world.Name, req.Query.String(), budgetName(req.Budget))
	ctx, cancel := context.WithTimeout(ctx, s.timeout(req.TimeoutMS))
	defer cancel()

	opt := volcano.NewOptimizer(world.RS)
	opt.Opts.Budget = budget
	opt.Opts.Obs = s.cfg.Obs
	opt.Opts.Cache = s.cache
	opt.Opts.Tier = tier
	opt.Opts.Router = s.router
	opt.Opts.Remote = s.remote(world)
	opt.Opts.Phases = rec.PhaseClock() // nil clock when unrecorded: timing off
	if rec != nil || s.cfg.Log != nil {
		opt.Opts.OnRefine = s.refineHook(rec)
	}
	start := time.Now()
	plan, err := opt.OptimizeContext(ctx, tree, want)
	elapsed := time.Since(start)
	s.hLatency.Observe(elapsed.Seconds())
	if err != nil {
		// ErrNoPlan / ErrSpaceExhausted / ErrGreedyNoPlan: the search
		// failed whole; no partial plan ever leaves the server.
		return nil, http.StatusUnprocessableEntity, err
	}
	if rec != nil {
		s.recordOutcome(rec, tier, opt.Stats)
	}
	resp := s.buildResponse(world, req.Query, plan, opt.Stats, elapsed.Microseconds())
	if req.IncludePlan {
		resp.Plan, err = EncodePlan(plan)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
	}
	if req.Execute {
		sum, code, err := s.executePlan(world, plan, rec)
		if err != nil {
			return nil, code, err
		}
		resp.Exec = sum
	}
	return resp, http.StatusOK, nil
}

// refineHook builds the OnRefine callback that links a background tier
// refinement back to the request that spawned it: the refinement
// section lands in rec (even after the request completed), the refine
// histogram gets its span, and the structured log notes the outcome.
func (s *Server) refineHook(rec *obs.RequestRecord) func(volcano.RefineOutcome) {
	return func(out volcano.RefineOutcome) {
		if h := s.hPhase[obs.PhaseRefine]; h != nil && rec != nil {
			h.Observe(out.Elapsed.Seconds())
		}
		rec.AttachRefinement(obs.RefinementInfo{
			Outcome:    out.Outcome,
			GreedyCost: out.GreedyCost,
			FullCost:   out.FullCost,
			ElapsedUS:  out.Elapsed.Microseconds(),
		})
		if lg := s.cfg.Log; lg != nil {
			id := ""
			if rec != nil {
				id = rec.ID
			}
			lg.Debug("refinement", "request_id", id, "outcome", out.Outcome,
				"greedy_cost", out.GreedyCost, "full_cost", out.FullCost,
				"elapsed_us", out.Elapsed.Microseconds())
		}
	}
}

// recordOutcome copies one finished optimization's cache, tier, and
// search outcome into its flight record.
func (s *Server) recordOutcome(rec *obs.RequestRecord, tier volcano.TierMode, st *volcano.Stats) {
	outcome := "miss"
	switch {
	case !s.cache.Enabled():
		outcome = "bypass"
	case st.ReplicaHits > 0:
		// Before the plain-hit check: a replica hit is a local hit on a
		// hot-key replica of a remotely-owned entry.
		outcome = "replica_hit"
	case st.PeerFills > 0:
		// Before the flight-collapsed check: a cluster-collapsed fill
		// also counts FlightShared.
		outcome = "peer_fill"
	case st.FlightShared > 0:
		outcome = "flight-collapsed"
	case st.CacheHits > 0 && st.CacheMisses == 0:
		outcome = "hit"
	}
	rec.SetCache(outcome, s.cache.Epoch(), st.WarmSeeds)
	served := st.Tier
	if served == "" {
		served = volcano.TierFull.String()
	}
	ti := obs.TierInfo{
		Requested:  tier.String(),
		Served:     served,
		Refined:    st.Refined,
		GreedyCost: st.GreedyCost,
		FullCost:   st.FullCost,
	}
	if st.TierRouted != "" {
		ti.Routed = st.TierRouted
		ti.Class = fmt.Sprintf("%016x", st.TierClass)
		if n, b, ok := s.router.ClassState(st.TierClass); ok {
			ti.RouterSamples, ti.RouterBenefit = n, b
		}
	}
	rec.SetTier(ti)
	si := obs.SearchInfo{
		Groups:       st.Groups,
		Exprs:        st.Exprs,
		TransFired:   sumCounts(st.TransFired),
		ImplFired:    sumCounts(st.ImplFired),
		CostedPlans:  st.CostedPlans,
		BudgetChecks: st.BudgetChecks,
		Degraded:     st.Degraded,
	}
	if st.Degraded {
		si.DegradeCause = st.DegradeCause.String()
		si.DegradePath = st.DegradePath
	}
	rec.SetSearch(si)
}

// executePlan runs a winning plan on the world's demo database and, for
// recorded requests, lands the per-operator runtime stats in the flight
// record.
func (s *Server) executePlan(world *World, plan *volcano.PExpr, rec *obs.RequestRecord) (*ExecSummary, int, error) {
	db := world.ExecDB(s.cfg.execSeed(), s.cfg.execRows())
	if db == nil {
		return nil, http.StatusBadRequest,
			fmt.Errorf("world %s has no catalog; cannot execute plans", world.Name)
	}
	comp := exec.NewCompiler(db, world.ExecProps)
	var st *exec.ExecStats
	if rec != nil {
		st = &exec.ExecStats{}
		comp.Opts.Stats = st
	}
	began := time.Now()
	it, err := comp.Compile(plan.ToExpr())
	if err != nil {
		return nil, http.StatusUnprocessableEntity, fmt.Errorf("execute: %w", err)
	}
	res, err := exec.Run(it)
	elapsed := time.Since(began)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, fmt.Errorf("execute: %w", err)
	}
	sum := &ExecSummary{Rows: len(res.Rows), Workers: 1, ElapsedUS: elapsed.Microseconds()}
	if rec != nil {
		rec.PhaseClock().Observe(obs.PhaseExec, began, elapsed)
		rec.SetExec(obs.ExecInfo{
			Rows:      sum.Rows,
			ElapsedUS: sum.ElapsedUS,
			Ops:       st.Report(),
		})
	}
	return sum, 0, nil
}

// buildResponse renders one optimization outcome as its wire response;
// /v1/optimize and /v1/batch share it so the degradation and tier
// surfaces stay consistent, and the per-outcome server metrics
// (degraded, cache hits) are counted exactly once here.
func (s *Server) buildResponse(world *World, q QuerySpec, plan *volcano.PExpr, st *volcano.Stats, elapsedUS int64) *OptimizeResponse {
	tier := st.Tier
	if tier == "" {
		tier = volcano.TierFull.String()
	}
	resp := &OptimizeResponse{
		Ruleset:     world.Name,
		Query:       q,
		PlanText:    plan.String(),
		Cost:        plan.Cost(world.RS.Class),
		Degraded:    st.Degraded,
		CacheHit:    st.CacheHits > 0 && st.CacheMisses == 0,
		PlannerTier: tier,
		Refined:     st.Refined,
		GreedyCost:  st.GreedyCost,
		FullCost:    st.FullCost,
		ElapsedUS:   elapsedUS,
		Stats: StatsSummary{
			Groups:     st.Groups,
			Exprs:      st.Exprs,
			TransFired: sumCounts(st.TransFired),
			ImplFired:  sumCounts(st.ImplFired),
			CostedPlan: st.CostedPlans,
		},
	}
	switch {
	case st.ReplicaHits > 0:
		resp.CacheOutcome = "replica_hit"
	case st.PeerFills > 0:
		resp.CacheOutcome = "peer_fill"
	}
	if st.Degraded {
		resp.DegradeCause = st.DegradeCause.String()
		resp.DegradePath = st.DegradePath
		s.mDegraded.Inc()
	}
	if resp.CacheHit {
		s.mHits.Inc()
	}
	return resp
}

func sumCounts(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func budgetName(s string) string {
	if s == "" {
		return "default"
	}
	return s
}

const maxBody = 1 << 20

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request: " + err.Error()})
		return false
	}
	return true
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if !s.decode(w, r, &req) {
		return
	}
	world, ok := s.cfg.Registry.Lookup(req.Ruleset)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown ruleset %q", req.Ruleset)})
		return
	}
	rec := s.record(w, r, "/v1/optimize")
	release, ok := s.begin(w, r, rec)
	if !ok {
		return
	}
	defer release()
	resp, code, err := s.optimizeOne(r.Context(), world, req, rec)
	if err != nil {
		s.mErrors.Inc()
		writeJSON(w, code, errorBody{Error: err.Error()})
		s.finish(rec, code, "error", err.Error())
		return
	}
	if rec != nil {
		resp.RequestID = rec.ID
	}
	writeJSON(w, code, resp)
	outcome := "ok"
	if resp.Degraded {
		outcome = "degraded"
	}
	s.finish(rec, code, outcome, "")
}

// BatchRequest is the wire request of /v1/batch: many optimize items
// answered as one admission unit, fanned over the engine's parallel
// batch API.
type BatchRequest struct {
	Items   []OptimizeRequest `json:"items"`
	Workers int               `json:"workers,omitempty"`
}

// BatchItemResponse is one element of a batch answer: either a response
// or an error, index-aligned with the request items.
type BatchItemResponse struct {
	*OptimizeResponse
	Error string `json:"error,omitempty"`
}

// BatchResponse is the wire response of /v1/batch.
type BatchResponse struct {
	Results  []BatchItemResponse `json:"results"`
	WallUS   int64               `json:"wall_us"`
	Workers  int                 `json:"workers"`
	Errors   int                 `json:"errors"`
	Degraded int                 `json:"degraded"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty batch"})
		return
	}
	if max := s.cfg.maxBatchItems(); len(req.Items) > max {
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: fmt.Sprintf("batch of %d items exceeds limit %d", len(req.Items), max)})
		return
	}
	workers := req.Workers
	if workers <= 0 || workers > s.cfg.maxBatchWorkers() {
		workers = s.cfg.maxBatchWorkers()
	}
	// Prepare every item before taking a slot: a malformed item fails
	// the whole batch up front (cheap), matching the all-or-nothing
	// admission decision.
	items := make([]volcano.BatchItem, len(req.Items))
	worlds := make([]*World, len(req.Items))
	for i, it := range req.Items {
		world, ok := s.cfg.Registry.Lookup(it.Ruleset)
		if !ok {
			writeJSON(w, http.StatusNotFound,
				errorBody{Error: fmt.Sprintf("item %d: unknown ruleset %q", i, it.Ruleset)})
			return
		}
		budget, ok := s.budgets[budgetName(it.Budget)]
		if !ok {
			writeJSON(w, http.StatusBadRequest,
				errorBody{Error: fmt.Sprintf("item %d: unknown budget class %q", i, it.Budget)})
			return
		}
		tier, err := volcano.ParseTier(it.Tier)
		if err != nil {
			writeJSON(w, http.StatusBadRequest,
				errorBody{Error: fmt.Sprintf("item %d: %v", i, err)})
			return
		}
		tree, want, err := world.Build(it.Query)
		if err != nil {
			writeJSON(w, http.StatusBadRequest,
				errorBody{Error: fmt.Sprintf("item %d: %v", i, err)})
			return
		}
		worlds[i] = world
		items[i] = volcano.BatchItem{
			RS:      world.RS,
			Tree:    tree,
			Req:     want,
			Opts:    volcano.Options{Budget: budget, Tier: tier, Remote: s.remote(world)},
			Timeout: s.timeout(it.TimeoutMS),
		}
	}
	rec := s.record(w, r, "/v1/batch")
	rec.SetRequestInfo("", fmt.Sprintf("batch[%d]", len(req.Items)), "")
	release, ok := s.begin(w, r, rec)
	if !ok {
		return
	}
	defer release()

	start := time.Now()
	results, _ := volcano.OptimizeBatchOpts(r.Context(), items, volcano.BatchOptions{
		Workers: workers,
		Obs:     s.cfg.Obs,
		Cache:   s.cache,
		Router:  s.router,
	})
	resp := BatchResponse{
		Results: make([]BatchItemResponse, len(results)),
		WallUS:  time.Since(start).Microseconds(),
		Workers: workers,
	}
	for i, res := range results {
		if res.Err != nil {
			s.mErrors.Inc()
			resp.Errors++
			resp.Results[i] = BatchItemResponse{Error: res.Err.Error()}
			continue
		}
		item := s.buildResponse(worlds[i], req.Items[i].Query, res.Plan, res.Stats, res.Elapsed.Microseconds())
		if item.Degraded {
			resp.Degraded++
		}
		if req.Items[i].IncludePlan {
			if pn, err := EncodePlan(res.Plan); err == nil {
				item.Plan = pn
			}
		}
		resp.Results[i] = BatchItemResponse{OptimizeResponse: item}
	}
	writeJSON(w, http.StatusOK, resp)
	outcome := "ok"
	if resp.Degraded > 0 {
		outcome = "degraded"
	}
	s.finish(rec, http.StatusOK, outcome, "")
}

// rulesetInfo describes one servable world on /v1/rulesets.
type rulesetInfo struct {
	Name    string   `json:"name"`
	MaxN    int      `json:"max_n"`
	Budgets []string `json:"budgets"`
}

func (s *Server) handleRulesets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET required"})
		return
	}
	budgets := make([]string, 0, len(s.budgets))
	for name := range s.budgets {
		budgets = append(budgets, name)
	}
	sort.Strings(budgets)
	var out []rulesetInfo
	for _, name := range s.cfg.Registry.Names() {
		world, _ := s.cfg.Registry.Lookup(name)
		out = append(out, rulesetInfo{Name: name, MaxN: world.MaxN, Budgets: budgets})
	}
	writeJSON(w, http.StatusOK, map[string]any{"rulesets": out})
}

func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	epoch := s.cache.Invalidate()
	if s.cluster != nil {
		// Fan the new epoch out to every live peer; a down peer
		// reconciles on its next exchange (epochs are monotonic, so
		// double delivery is harmless).
		notified := s.cluster.BroadcastEpoch(r.Context(), epoch)
		writeJSON(w, http.StatusOK, map[string]uint64{
			"epoch": epoch, "peers_notified": uint64(notified)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"epoch": epoch})
}

// healthBody is the /healthz response: liveness plus the handful of
// gauges an operator checks first when the service misbehaves.
type healthBody struct {
	Status     string `json:"status"`
	UptimeS    int64  `json:"uptime_s"`
	Inflight   int    `json:"inflight"`
	QueueDepth int64  `json:"queue_depth"`
	Draining   bool   `json:"draining"`
	CacheEpoch uint64 `json:"cache_epoch"`
	// Cluster reports the node's membership when clustering is on:
	// node id, peer count, currently-down peers, promoted hot keys.
	Cluster *cluster.Status `json:"cluster,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.inflightMu.Lock()
	inflight := s.inflightN
	s.inflightMu.Unlock()
	body := healthBody{
		Status:     "ok",
		UptimeS:    int64(time.Since(s.started).Seconds()),
		Inflight:   inflight,
		QueueDepth: s.waiting.Load(),
		CacheEpoch: s.cache.Epoch(),
		Cluster:    s.ClusterStatus(),
	}
	code := http.StatusOK
	if s.draining.Load() {
		body.Status, body.Draining = "draining", true
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}
