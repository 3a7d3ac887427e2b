package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/exec"
	"prairie/internal/oodb"
	"prairie/internal/qgen"
	"prairie/internal/relopt"
	"prairie/internal/server"
	"prairie/internal/volcano"
)

// ref is the library's answer for one pool query: the full search
// without a cache, the greedy plan, and (for executed queries) the row
// count of the naive evaluator.
type ref struct {
	FullText   string
	FullCost   float64
	GreedyText string
	GreedyCost float64
	GreedyOK   bool
	Rows       int
}

// computeRefs plans every pool query through the library on a registry
// of its own: volcano.Optimizer with no cache at the full tier, and
// volcano.GreedyPlan, whose call times it also returns for the traced
// run. A pool query whose reference search degrades or fails is a
// benchmark defect and stops the run.
func computeRefs(wl *workload, reg *server.Registry, oracle map[string]int) ([]ref, []time.Duration, error) {
	refs := make([]ref, len(wl.Pool))
	var greedy []time.Duration
	for i, q := range wl.Pool {
		w, ok := reg.Lookup(q.World)
		if !ok {
			return nil, nil, fmt.Errorf("world %s not registered", q.World)
		}
		tree, req, err := w.Build(q.Spec)
		if err != nil {
			return nil, nil, fmt.Errorf("reference %s: %w", q, err)
		}
		opt := volcano.NewOptimizer(w.RS)
		plan, err := opt.OptimizeContext(context.Background(), tree, req)
		if err != nil {
			return nil, nil, fmt.Errorf("reference %s: %w", q, err)
		}
		if opt.Stats.Degraded {
			return nil, nil, fmt.Errorf("reference %s: search degraded (%s)", q, opt.Stats.DegradeCause)
		}
		r := ref{FullText: plan.String(), FullCost: plan.Cost(w.RS.Class), Rows: -1}
		tree, req, err = w.Build(q.Spec)
		if err != nil {
			return nil, nil, err
		}
		began := time.Now()
		gp, gerr := volcano.GreedyPlan(w.RS, tree, req)
		greedy = append(greedy, time.Since(began))
		if gerr == nil {
			r.GreedyText, r.GreedyCost, r.GreedyOK = gp.String(), gp.Cost(w.RS.Class), true
		}
		if wl.Execute {
			rows, ok := oracle[q.String()]
			if !ok {
				return nil, nil, fmt.Errorf("no oracle row count for %s in %s; regenerate it with --gen-oracle", q, oracleFile)
			}
			r.Rows = rows
		}
		refs[i] = r
	}
	return refs, greedy, nil
}

// answer is the part of an optimize response the checks read.
type answer struct {
	PlanText string  `json:"plan_text"`
	Cost     float64 `json:"cost"`
	Degraded bool    `json:"degraded"`
	Exec     *struct {
		Rows int `json:"rows"`
	} `json:"exec"`
}

// check compares one answer with its reference. Under tier=auto the plan
// may be either the greedy or the full reference; otherwise it must be
// the full one. Plan text and cost must match exactly.
func check(wl *workload, q query, r ref, a answer) error {
	full := a.PlanText == r.FullText && a.Cost == r.FullCost
	greedy := r.GreedyOK && a.PlanText == r.GreedyText && a.Cost == r.GreedyCost
	if !full && !(wl.Tier == "auto" && greedy) {
		return fmt.Errorf("wrong plan for %s: got %q cost %v, want %q cost %v",
			q, a.PlanText, a.Cost, r.FullText, r.FullCost)
	}
	if wl.Execute {
		if a.Exec == nil {
			return fmt.Errorf("wrong answer for %s: no execution summary", q)
		}
		if a.Exec.Rows != r.Rows {
			return fmt.Errorf("wrong row count for %s: got %d, naive evaluator gives %d", q, a.Exec.Rows, r.Rows)
		}
	}
	return nil
}

// oracleFile holds the naive evaluator's row counts for every executed
// pool query. The evaluator's nested loops take seconds per query at
// execRows rows, so the counts are computed once, by --gen-oracle, and
// kept with the benchmark; they depend only on the fixed catalog and
// data seeds, never on --seed.
const oracleFile = "oracle_rows.json"

type oracleDoc struct {
	MaxN      int            `json:"max_n"`
	WorldSeed int64          `json:"world_seed"`
	ExecSeed  int64          `json:"exec_seed"`
	ExecRows  int            `json:"exec_rows"`
	Rows      map[string]int `json:"rows"`
}

func loadOracle(dir string) (map[string]int, error) {
	raw, err := os.ReadFile(filepath.Join(dir, oracleFile))
	if err != nil {
		return nil, err
	}
	var doc oracleDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", oracleFile, err)
	}
	if doc.MaxN != maxN || doc.WorldSeed != worldSeed || doc.ExecSeed != execSeed || doc.ExecRows != execRows {
		return nil, fmt.Errorf("%s was generated for other data parameters; regenerate it with --gen-oracle", oracleFile)
	}
	return doc.Rows, nil
}

// genOracle evaluates every executed pool query with exec.Naive on the
// same demo database the server builds (World.ExecDB with the server's
// seed and row count) and writes the row counts to dir/oracleFile.
func genOracle(dir, dsl string) error {
	reg, err := server.DefaultRegistry(maxN, worldSeed, dsl)
	if err != nil {
		return err
	}
	doc := oracleDoc{MaxN: maxN, WorldSeed: worldSeed, ExecSeed: execSeed, ExecRows: execRows, Rows: map[string]int{}}
	for _, wl := range workloads {
		if !wl.Execute {
			continue
		}
		for _, q := range wl.Pool {
			if _, done := doc.Rows[q.String()]; done {
				continue
			}
			w, _ := reg.Lookup(q.World)
			tree, err := logicalTree(w, q.Spec)
			if err != nil {
				return fmt.Errorf("oracle %s: %w", q, err)
			}
			res, err := (&exec.Naive{DB: w.ExecDB(execSeed, execRows), P: w.ExecProps}).Eval(tree)
			if err != nil {
				return fmt.Errorf("oracle %s: %w", q, err)
			}
			doc.Rows[q.String()] = len(res.Rows)
			fmt.Fprintf(os.Stderr, "oracle %s: %d rows\n", q, len(res.Rows))
		}
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, oracleFile), append(raw, '\n'), 0o644)
}

// logicalTree builds the unoptimized operator tree of a query straight
// from the world's catalog, independently of the server's query builder.
func logicalTree(w *server.World, s server.QuerySpec) (*core.Expr, error) {
	kind, err := qgen.ParseKind(s.Family)
	if err != nil {
		return nil, err
	}
	switch w.Name {
	case wPrairie, wVolcano:
		g := qgen.Linear
		if s.Graph == "star" {
			g = qgen.Star
		}
		return qgen.BuildGraph(oodb.New(w.Cat), kind, s.N, g)
	case wRelational:
		names := make([]string, s.N)
		for i := range names {
			names[i] = catalog.ClassName(i + 1)
		}
		return relopt.New(w.Cat).Build(relopt.QuerySpec{Relations: names, Select: kind.HasSelect()})
	}
	return nil, fmt.Errorf("world %s has no demo database", w.Name)
}
