// Benchmarks regenerating the paper's evaluation under testing.B — one
// benchmark per table and figure. Absolute times differ from the 1994
// DECstation numbers; the shapes are the reproduction target:
//
//   - Fig10/Fig11 (E1/E2): Prairie within a few percent of Volcano;
//   - Fig12/Fig13 (E3/E4): steep growth, search-space explosion;
//   - Fig14: equivalence-class growth per family;
//   - Table5: rule matching work per query.
//
// Run with: go test -bench=. -benchmem
package prairie_test

import (
	"testing"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/obs"
	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/qgen"
	"prairie/internal/relopt"
	"prairie/internal/volcano"
)

// prep builds both optimizers' rule sets and the prepared query for one
// workload point.
type benchWorld struct {
	pvrs, vvrs   *volcano.RuleSet
	ptree, vtree *core.Expr
	preq, vreq   *core.Descriptor
}

func prepOODB(b *testing.B, e qgen.ExprKind, n int, indexed bool) *benchWorld {
	b.Helper()
	w := &benchWorld{}
	po := oodb.New(qgen.Catalog(n, 101, indexed))
	rs, err := po.PrairieRules()
	if err != nil {
		b.Fatal(err)
	}
	var rep *p2v.Report
	w.pvrs, rep, err = p2v.Translate(rs)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := qgen.Build(po, e, n)
	if err != nil {
		b.Fatal(err)
	}
	w.ptree, w.preq, err = rep.PrepareQuery(tree, nil)
	if err != nil {
		b.Fatal(err)
	}
	vo := oodb.New(qgen.Catalog(n, 101, indexed))
	w.vvrs = vo.VolcanoRules()
	w.vtree, err = qgen.Build(vo, e, n)
	if err != nil {
		b.Fatal(err)
	}
	w.vreq = core.NewDescriptor(vo.Alg.Props)
	return w
}

func benchOptimize(b *testing.B, vrs *volcano.RuleSet, tree *core.Expr, req *core.Descriptor) {
	b.Helper()
	b.ReportAllocs()
	var groups int
	for i := 0; i < b.N; i++ {
		opt := volcano.NewOptimizer(vrs)
		if _, err := opt.Optimize(tree.Clone(), req); err != nil {
			b.Fatal(err)
		}
		groups = opt.Stats.Groups
	}
	b.ReportMetric(float64(groups), "groups")
}

// benchFigure runs one timing figure's workload at a representative N
// for both specification paths.
func benchFigure(b *testing.B, e qgen.ExprKind, n int) {
	for _, indexed := range []bool{false, true} {
		name := "noindex"
		if indexed {
			name = "indexed"
		}
		w := prepOODB(b, e, n, indexed)
		b.Run(name+"/prairie", func(b *testing.B) { benchOptimize(b, w.pvrs, w.ptree, w.preq) })
		b.Run(name+"/volcano", func(b *testing.B) { benchOptimize(b, w.vvrs, w.vtree, w.vreq) })
	}
}

func BenchmarkFig10_E1_4way(b *testing.B) { benchFigure(b, qgen.E1, 5) }
func BenchmarkFig11_E2_3way(b *testing.B) { benchFigure(b, qgen.E2, 4) }
func BenchmarkFig12_E3_2way(b *testing.B) { benchFigure(b, qgen.E3, 3) }
func BenchmarkFig13_E4_2way(b *testing.B) { benchFigure(b, qgen.E4, 3) }

// BenchmarkFig14_Exploration measures pure search-space expansion (the
// quantity behind the equivalence-class counts) for E4.
func BenchmarkFig14_Exploration(b *testing.B) {
	w := prepOODB(b, qgen.E4, 3, false)
	benchOptimize(b, w.pvrs, w.ptree, w.preq)
}

// BenchmarkTable5_RuleMatch measures the rule-matching work of the most
// rule-intensive query (Q7: E4, no indices).
func BenchmarkTable5_RuleMatch(b *testing.B) {
	w := prepOODB(b, qgen.E4, 2, false)
	benchOptimize(b, w.pvrs, w.ptree, w.preq)
}

// BenchmarkRelopt reproduces the [5] experiment point at 4 joins.
func BenchmarkRelopt(b *testing.B) {
	cat := catalog.Generate(catalog.DefaultGen(5, 101, true))
	names := make([]string, 5)
	for i := range names {
		names[i] = catalog.ClassName(i + 1)
	}
	q := relopt.QuerySpec{Relations: names, Select: true}

	po := relopt.New(cat)
	pvrs, rep, err := p2v.Translate(po.PrairieRules())
	if err != nil {
		b.Fatal(err)
	}
	ptree, err := po.Build(q)
	if err != nil {
		b.Fatal(err)
	}
	ptree, preq, err := rep.PrepareQuery(ptree, po.Requirement(q))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("prairie", func(b *testing.B) { benchOptimize(b, pvrs, ptree, preq) })

	vo := relopt.New(cat)
	vtree, err := vo.Build(q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("volcano", func(b *testing.B) {
		benchOptimize(b, vo.VolcanoRules(), vtree, vo.Requirement(q))
	})
}

// BenchmarkP2VTranslate measures the pre-processor itself on the full
// OODB specification (22 T-rules, 11 I-rules).
func BenchmarkP2VTranslate(b *testing.B) {
	o := oodb.New(qgen.Catalog(2, 101, false))
	rs, err := o.PrairieRules()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := p2v.Translate(rs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSLCompile measures parsing plus type-checking plus
// compilation of the OODB Prairie-language specification.
func BenchmarkDSLCompile(b *testing.B) {
	o := oodb.New(qgen.Catalog(2, 101, false))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := oodb.New(o.Cat).PrairieRules(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchOptimizeObs is benchOptimize with an explicit observer attached
// to every run (nil = the uninstrumented baseline).
func benchOptimizeObs(b *testing.B, w *benchWorld, ob *obs.Observer) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt := volcano.NewOptimizer(w.pvrs)
		opt.Opts.Obs = ob
		if _, err := opt.Optimize(w.ptree.Clone(), w.preq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsGuard backs `make bench-guard`: the same workload with
// observability absent ("off"), attached but with every sink disabled
// ("disabled" — the guards must make this indistinguishable from off),
// and fully enabled ("on", reported informationally). The guard target
// fails the build if disabled drifts more than ~2% from off.
func BenchmarkObsGuard(b *testing.B) {
	for _, wl := range []struct {
		name string
		e    qgen.ExprKind
		n    int
	}{
		{"fig12", qgen.E3, 3},
		{"fig13", qgen.E4, 3},
	} {
		w := prepOODB(b, wl.e, wl.n, false)
		b.Run(wl.name+"/off", func(b *testing.B) { benchOptimizeObs(b, w, nil) })
		b.Run(wl.name+"/disabled", func(b *testing.B) { benchOptimizeObs(b, w, &obs.Observer{}) })
		b.Run(wl.name+"/on", func(b *testing.B) {
			benchOptimizeObs(b, w, &obs.Observer{
				Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(), RuleTiming: true,
			})
		})
	}
}

// benchOptimizeCache is benchOptimize with an explicit plan cache
// attached to every run (nil = the cacheless baseline).
func benchOptimizeCache(b *testing.B, w *benchWorld, pc *volcano.PlanCache) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt := volcano.NewOptimizer(w.pvrs)
		opt.Opts.Cache = pc
		if _, err := opt.Optimize(w.ptree.Clone(), w.preq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheGuard backs `make cache-guard`: the same workload with
// the plan cache absent ("off"), attached but zero-capacity ("disabled"
// — the single Enabled() branch must make this indistinguishable from
// off), and enabled with capacity ("on" — after the first iteration
// every run is a full hit, so this reports the hit path
// informationally). The guard target fails the build if disabled
// drifts more than ~2% from off. Workloads are the longest-running
// figure points (milliseconds per op) so the 2% bar clears scheduler
// noise.
func BenchmarkCacheGuard(b *testing.B) {
	for _, wl := range []struct {
		name string
		e    qgen.ExprKind
		n    int
	}{
		{"fig11", qgen.E2, 4},
		{"fig13", qgen.E4, 3},
	} {
		w := prepOODB(b, wl.e, wl.n, false)
		b.Run(wl.name+"/off", func(b *testing.B) { benchOptimizeCache(b, w, nil) })
		b.Run(wl.name+"/disabled", func(b *testing.B) { benchOptimizeCache(b, w, volcano.NewPlanCache(0)) })
		b.Run(wl.name+"/on", func(b *testing.B) { benchOptimizeCache(b, w, volcano.NewPlanCache(512)) })
	}
}

// BenchmarkStrategyAblation compares the two search strategies (§2.2)
// over the same generated rule set: top-down memoizing search versus
// System R-style bottom-up dynamic programming.
func BenchmarkStrategyAblation(b *testing.B) {
	w := prepOODB(b, qgen.E2, 4, false)
	b.Run("topdown", func(b *testing.B) { benchOptimize(b, w.pvrs, w.ptree, w.preq) })
	b.Run("bottomup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bu := volcano.NewBottomUp(w.pvrs)
			if _, err := bu.Optimize(w.ptree.Clone(), w.preq); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchOptimizeTier is benchOptimizeCache with a router and tier mode
// attached — the tiered-planner guard's workhorse.
func benchOptimizeTier(b *testing.B, w *benchWorld, pc *volcano.PlanCache, rt *volcano.Router, tier volcano.TierMode) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt := volcano.NewOptimizer(w.pvrs)
		opt.Opts.Cache = pc
		opt.Opts.Router = rt
		opt.Opts.Tier = tier
		if _, err := opt.Optimize(w.ptree.Clone(), w.preq); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rt.Wait() // drain background refiners before the next mode runs
}

// BenchmarkTierGuard backs `make tier-guard`: full searches with the
// tier router absent ("off"), attached with the tier left at the
// default full mode ("disabled" — dispatch must shortcut past the
// tiered path, so this must be indistinguishable from off), and in
// auto mode ("on" — router-directed planning with both costs measured,
// reported informationally). The guard target fails the build if
// disabled drifts more than ~2% from off. All modes run cacheless so
// every iteration does identical deterministic work — a cached mix
// would be dominated by its one cold miss, a single noisy sample the
// min-of-count comparison cannot smooth (same reasoning as
// BenchmarkCacheGuard's off mode).
func BenchmarkTierGuard(b *testing.B) {
	for _, wl := range []struct {
		name string
		e    qgen.ExprKind
		n    int
	}{
		{"fig11", qgen.E2, 4},
		{"fig13", qgen.E4, 3},
	} {
		w := prepOODB(b, wl.e, wl.n, false)
		b.Run(wl.name+"/off", func(b *testing.B) {
			benchOptimizeTier(b, w, nil, nil, volcano.TierFull)
		})
		b.Run(wl.name+"/disabled", func(b *testing.B) {
			benchOptimizeTier(b, w, nil, volcano.NewRouter(volcano.RouterConfig{}), volcano.TierFull)
		})
		b.Run(wl.name+"/on", func(b *testing.B) {
			benchOptimizeTier(b, w, nil, volcano.NewRouter(volcano.RouterConfig{}), volcano.TierAuto)
		})
	}
}
