package experiments

import (
	"fmt"
	"time"

	"prairie/internal/core"
	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/oodb"
	"prairie/internal/qgen"
	"prairie/internal/volcano"
)

// execWorkload is one (family, classes) point of the executor bench:
// the query is optimized once with the hand-coded OODB rule set, then
// the winning plan is executed repeatedly on populated synthetic data.
type execWorkload struct {
	e qgen.ExprKind
	n int
}

// ExecBench measures the executor (DESIGN.md §4.14): the naive
// reference evaluator versus the serial iterator engine on optimized
// multi-join plans. The engine's result is bag-compared against the
// naive oracle before its timing is reported — a wrong fast executor
// fails the sweep instead of publishing a number.
func ExecBench(opts Options) (*Table, error) {
	workloads := []execWorkload{
		{qgen.E1, 4}, {qgen.E1, 6}, {qgen.E1, 8}, {qgen.E2, 3}, {qgen.E3, 3}, {qgen.E4, 3},
	}
	t := &Table{
		Title:  fmt.Sprintf("Executor: naive vs serial, rows<=%d per class", opts.rows()),
		Header: []string{"workload", "out_rows", "naive_ms", "serial_ms"},
		Notes: []string{
			"the engine's result is bag-verified against the naive evaluator before timing",
			"serial_ms is the best of the repeats, compile included; empty results time the early-termination path",
		},
	}
	reps := opts.Repeats
	if reps <= 0 {
		reps = 9
	}
	for _, wl := range workloads {
		name := fmt.Sprintf("%v/n%d", wl.e, wl.n)
		seed := opts.seeds()[0]
		cat := qgen.Catalog(wl.n, seed, false)
		vo := oodb.New(cat)
		tree, err := qgen.Build(vo, wl.e, wl.n)
		if err != nil {
			return nil, err
		}
		opt := volcano.NewOptimizer(vo.VolcanoRules())
		opt.Opts = opts.volcanoOpts()
		plan, err := opt.Optimize(tree.Clone(), core.NewDescriptor(vo.Alg.Props))
		if err != nil {
			return nil, fmt.Errorf("experiments: optimize %s: %w", name, err)
		}
		pe := plan.ToExpr()
		db := data.Populate(cat, seed, opts.rows())
		props := exec.Props{Ord: vo.Ord, JP: vo.JP, SP: vo.SP, PA: vo.PA, MA: vo.MA, UA: vo.UA}

		// Oracle: one naive evaluation, timed, is both the reference bag
		// and the naive_ms column.
		nStart := time.Now()
		want, err := (&exec.Naive{DB: db, P: props}).Eval(tree)
		if err != nil {
			return nil, fmt.Errorf("experiments: naive %s: %w", name, err)
		}
		naiveMS := time.Since(nStart)

		comp := exec.NewCompiler(db, props)
		var best time.Duration
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			it, err := comp.Compile(pe)
			if err != nil {
				return nil, fmt.Errorf("experiments: compile %s: %w", name, err)
			}
			got, err := exec.Run(it)
			if err != nil {
				return nil, fmt.Errorf("experiments: run %s: %w", name, err)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
			if rep == 0 && !exec.SameBag(got, want) {
				return nil, fmt.Errorf("experiments: %s disagrees with the naive oracle (%d vs %d rows)",
					name, len(got.Rows), len(want.Rows))
			}
		}
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprintf("%d", len(want.Rows)), durMS(naiveMS), durMS(best),
		})
	}
	return t, nil
}
