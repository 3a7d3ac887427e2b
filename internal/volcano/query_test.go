package volcano_test

import (
	"os"
	"testing"

	"prairie/internal/core"
	"prairie/internal/server"
)

// TestPreparedSeedPrints: a prepared query's warm-start seeds — taken
// from the one fingerprint walk of the whole tree — are exactly what
// RuleSet.Fingerprint computes for each proper interior subtree, in the
// pre-order the optimizer interns them in, on all four served worlds.
func TestPreparedSeedPrints(t *testing.T) {
	src, err := os.ReadFile("../../examples/dslrules/rules.prairie")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := server.DefaultRegistry(5, 101, string(src))
	if err != nil {
		t.Fatal(err)
	}
	specs := []server.QuerySpec{
		{Family: "E1", N: 2}, {Family: "E1", N: 5, Graph: "star"}, {Family: "E2", N: 4},
		{Family: "E3", N: 3, Graph: "star"}, {Family: "E4", N: 3},
	}
	for _, name := range reg.Names() {
		w, _ := reg.Lookup(name)
		for _, spec := range specs {
			tree, want, err := w.Build(spec)
			if err != nil {
				t.Fatalf("%s %v: %v", name, spec, err)
			}
			var subs []*core.Expr
			var walk func(e *core.Expr, root bool)
			walk = func(e *core.Expr, root bool) {
				if e.IsLeaf() {
					return
				}
				if !root {
					subs = append(subs, e)
				}
				for _, k := range e.Kids {
					walk(k, false)
				}
			}
			walk(tree, true)
			fps, canons := w.RS.Prepare(tree, want).SubtreePrints()
			if len(subs) == 0 {
				t.Fatalf("%s %v: query has no interior subtrees to seed", name, spec)
			}
			if len(fps) != len(subs) {
				t.Fatalf("%s %v: %d seed prints for %d interior subtrees", name, spec, len(fps), len(subs))
			}
			for i, sub := range subs {
				fp, canon := w.RS.Fingerprint(sub)
				if fps[i] != fp || canons[i] != canon {
					t.Errorf("%s %v: seed %d is (%x, %q), Fingerprint gives (%x, %q)",
						name, spec, i, fps[i], canons[i], fp, canon)
				}
			}
		}
	}
}
