package prairie_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"prairie/internal/core"
	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/qgen"
	"prairie/internal/volcano"
)

// exploreResult captures everything the equivalence harness compares:
// the memo closure (groups, expressions) and the winning plan's cost.
type exploreResult struct {
	groups, exprs int
	cost          float64
}

func optimizeWith(t *testing.T, vrs *volcano.RuleSet, tree *core.Expr, req *core.Descriptor, kind volcano.ExplorerKind) exploreResult {
	t.Helper()
	opt := volcano.NewOptimizer(vrs)
	opt.Opts.Explorer = kind
	plan, err := opt.Optimize(tree.Clone(), req)
	if err != nil {
		t.Fatalf("explorer %d: %v", kind, err)
	}
	return exploreResult{
		groups: opt.Stats.Groups,
		exprs:  opt.Stats.Exprs,
		cost:   plan.D.Float(vrs.Class.Cost),
	}
}

// TestExplorerEquivalence is the ISSUE's equivalence harness: over the
// seeded qgen workloads (families E1–E4, with and without indices, both
// the P2V-generated and the hand-coded Volcano rule sets), the worklist
// explorer must produce exactly the same equivalence-class counts,
// expression counts, and winner costs as the pass-based explorer —
// Figure 14 fidelity is a reproduction target, not just a perf number.
func TestExplorerEquivalence(t *testing.T) {
	families := []struct {
		e qgen.ExprKind
		n int
	}{
		{qgen.E1, 4},
		{qgen.E2, 4},
		{qgen.E3, 3},
		{qgen.E4, 3},
	}
	for _, fam := range families {
		for _, indexed := range []bool{false, true} {
			for _, seed := range qgen.InstanceSeeds()[:2] {
				name := fmt.Sprintf("%v/n%d/indexed=%v/seed%d", fam.e, fam.n, indexed, seed)
				t.Run(name, func(t *testing.T) {
					// Prairie-generated path.
					cat := qgen.Catalog(fam.n, seed, indexed)
					po := oodb.New(cat)
					prs, err := po.PrairieRules()
					if err != nil {
						t.Fatal(err)
					}
					pvrs, rep, err := p2v.Translate(prs)
					if err != nil {
						t.Fatal(err)
					}
					ptree, err := qgen.Build(po, fam.e, fam.n)
					if err != nil {
						t.Fatal(err)
					}
					ptree, preq, err := rep.PrepareQuery(ptree, nil)
					if err != nil {
						t.Fatal(err)
					}
					checkEquivalence(t, "prairie", pvrs, ptree, preq)

					// Hand-coded Volcano path.
					vo := oodb.New(qgen.Catalog(fam.n, seed, indexed))
					vtree, err := qgen.Build(vo, fam.e, fam.n)
					if err != nil {
						t.Fatal(err)
					}
					checkEquivalence(t, "volcano", vo.VolcanoRules(), vtree, core.NewDescriptor(vo.Alg.Props))
				})
			}
		}
	}
}

func checkEquivalence(t *testing.T, path string, vrs *volcano.RuleSet, tree *core.Expr, req *core.Descriptor) {
	t.Helper()
	pass := optimizeWith(t, vrs, tree, req, volcano.ExplorerPasses)
	work := optimizeWith(t, vrs, tree, req, volcano.ExplorerWorklist)
	if pass.groups != work.groups {
		t.Errorf("%s: groups differ: passes %d, worklist %d", path, pass.groups, work.groups)
	}
	if pass.exprs != work.exprs {
		t.Errorf("%s: exprs differ: passes %d, worklist %d", path, pass.exprs, work.exprs)
	}
	if math.Abs(pass.cost-work.cost) > 1e-9*math.Max(1, math.Abs(pass.cost)) {
		t.Errorf("%s: winner cost differs: passes %g, worklist %g", path, pass.cost, work.cost)
	}
}

// TestExplorerEquivalenceOnExhaustion checks both explorers agree that a
// capped search space is exhausted (the series-ending condition of the
// figure sweeps).
func TestExplorerEquivalenceOnExhaustion(t *testing.T) {
	vo := oodb.New(qgen.Catalog(4, qgen.InstanceSeeds()[0], false))
	tree, err := qgen.Build(vo, qgen.E4, 4)
	if err != nil {
		t.Fatal(err)
	}
	req := core.NewDescriptor(vo.Alg.Props)
	for _, kind := range []volcano.ExplorerKind{volcano.ExplorerPasses, volcano.ExplorerWorklist} {
		opt := volcano.NewOptimizer(vo.VolcanoRules())
		opt.Opts.Explorer = kind
		opt.Opts.MaxExprs = 200
		_, err := opt.Optimize(tree.Clone(), req)
		if !errors.Is(err, volcano.ErrSpaceExhausted) {
			t.Errorf("explorer %d: err = %v, want ErrSpaceExhausted", kind, err)
		}
	}
}

// TestDegradedE4ReturnsExecutablePlan is the ISSUE's acceptance case:
// an E4 chain query at N=4 — which exhausts the search space before the
// default expression cap on unbudgeted runs — must, under a tight
// budget, return a valid plan marked Degraded instead of
// ErrSpaceExhausted, and that plan must actually execute.
func TestDegradedE4ReturnsExecutablePlan(t *testing.T) {
	seed := qgen.InstanceSeeds()[0]
	cat := qgen.Catalog(4, seed, false)
	vo := oodb.New(cat)
	tree, err := qgen.Build(vo, qgen.E4, 4)
	if err != nil {
		t.Fatal(err)
	}
	req := core.NewDescriptor(vo.Alg.Props)

	// Sanity: the same query with the budget as a hard cap fails.
	hard := volcano.NewOptimizer(vo.VolcanoRules())
	hard.Opts.MaxExprs = 5000
	if _, err := hard.Optimize(tree.Clone(), req); !errors.Is(err, volcano.ErrSpaceExhausted) {
		t.Fatalf("hard cap: err = %v, want ErrSpaceExhausted", err)
	}

	opt := volcano.NewOptimizer(vo.VolcanoRules())
	opt.Opts.Budget = volcano.Budget{MaxExprs: 5000}
	plan, err := opt.Optimize(tree.Clone(), req)
	if err != nil {
		t.Fatalf("budgeted E4 n=4 failed instead of degrading: %v", err)
	}
	if !opt.Stats.Degraded || opt.Stats.DegradeCause != volcano.CauseMaxExprs {
		t.Errorf("not marked degraded: %+v", opt.Stats)
	}
	pe := plan.ToExpr()
	if !pe.IsPlan() {
		t.Fatalf("degraded result is not an access plan: %s", plan)
	}
	if got, want := len(pe.Leaves()), len(tree.Leaves()); got != want {
		t.Fatalf("degraded plan covers %d stored files, want %d", got, want)
	}
	// Executable, not just well-formed: compile and run it on synthetic
	// data (the optshell -execute path).
	db := data.Populate(cat, seed, 32)
	props := exec.Props{Ord: vo.Ord, JP: vo.JP, SP: vo.SP, PA: vo.PA, MA: vo.MA, UA: vo.UA}
	it, err := exec.NewCompiler(db, props).Compile(pe)
	if err != nil {
		t.Fatalf("degraded plan does not compile: %v", err)
	}
	got, err := exec.Run(it)
	if err != nil {
		t.Fatalf("degraded plan does not execute: %v", err)
	}
	want, err := (&exec.Naive{DB: db, P: props}).Eval(tree)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.SameBag(got, want) {
		t.Fatalf("degraded plan disagrees with naive: %d vs %d rows", len(got.Rows), len(want.Rows))
	}
}

// TestDegradedCostBoundedByFullSearch: on a workload small enough to
// optimize fully, a budget-degraded plan must still be structurally
// valid and can only cost more than (or equal to) the unbudgeted
// winner.
func TestDegradedCostBoundedByFullSearch(t *testing.T) {
	seed := qgen.InstanceSeeds()[0]
	vo := oodb.New(qgen.Catalog(4, seed, false))
	tree, err := qgen.Build(vo, qgen.E1, 4)
	if err != nil {
		t.Fatal(err)
	}
	req := core.NewDescriptor(vo.Alg.Props)
	vrs := vo.VolcanoRules()

	full := volcano.NewOptimizer(vrs)
	best, err := full.Optimize(tree.Clone(), req)
	if err != nil {
		t.Fatal(err)
	}
	deg := volcano.NewOptimizer(vrs)
	deg.Opts.Budget = volcano.Budget{MaxRuleFirings: 1}
	plan, err := deg.Optimize(tree.Clone(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !deg.Stats.Degraded {
		t.Fatal("run did not degrade under a 1-firing budget")
	}
	if !plan.ToExpr().IsPlan() || len(plan.ToExpr().Leaves()) != len(tree.Leaves()) {
		t.Errorf("degraded plan structurally invalid: %s", plan)
	}
	costID := vrs.Class.Cost
	if got, want := plan.D.Float(costID), best.D.Float(costID); got < want {
		t.Errorf("degraded plan cost %g beats unbudgeted winner %g", got, want)
	}
}

// TestOptimizeBatchOODB exercises the concurrent batch API on the real
// OODB workloads (run with -race in CI): a grid of (family, seed) jobs
// sharing one rule set must reproduce the sequential group counts.
func TestOptimizeBatchOODB(t *testing.T) {
	cat := qgen.Catalog(3, qgen.InstanceSeeds()[0], false)
	vo := oodb.New(cat)
	vrs := vo.VolcanoRules()
	req := core.NewDescriptor(vo.Alg.Props)

	var items []volcano.BatchItem
	var want []int
	for _, e := range []qgen.ExprKind{qgen.E1, qgen.E2, qgen.E3, qgen.E4} {
		tree, err := qgen.Build(vo, e, 3)
		if err != nil {
			t.Fatal(err)
		}
		seq := volcano.NewOptimizer(vrs)
		if _, err := seq.Optimize(tree.Clone(), req); err != nil {
			t.Fatal(err)
		}
		want = append(want, seq.Stats.Groups)
		items = append(items, volcano.BatchItem{RS: vrs, Tree: tree, Req: req})
	}
	results := volcano.OptimizeBatch(items, 4)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if r.Stats.Groups != want[i] {
			t.Errorf("item %d: batch groups %d, sequential %d", i, r.Stats.Groups, want[i])
		}
	}
}
