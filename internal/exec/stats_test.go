package exec

import (
	"testing"

	"prairie/internal/core"
)

// threeWayJoinPlan builds Hash_join(Hash_join(C1, C2), C3) on the "a"
// attributes.
func threeWayJoinPlan(tp *tinyProps) *core.Expr {
	ops := planAlgebra()
	scan := func(file string) *core.Expr {
		return core.NewNode(ops["File_scan"], tp.desc(nil), core.NewLeaf(file, tp.desc(nil)))
	}
	jd := func(p *core.Pred) *core.Descriptor {
		return tp.desc(func(d *core.Descriptor) { d.Set(tp.p.JP, p) })
	}
	inner := core.NewNode(ops["Hash_join"],
		jd(core.EqAttr(core.A("C1", "a"), core.A("C2", "a"))),
		scan("C1"), scan("C2"))
	return core.NewNode(ops["Hash_join"],
		jd(core.EqAttr(core.A("C2", "a"), core.A("C3", "a"))),
		inner, scan("C3"))
}

func runPlan(t *testing.T, c *Compiler, plan *core.Expr) *Result {
	t.Helper()
	it, err := c.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(it)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExecStatsSerial: the collector reports one entry per operator in
// compile order, with parent links forming the plan tree, the root's
// row count matching the result cardinality, and RowsIn derived from
// the children's outputs. Execution is serial, so every operator's
// Open+Next time contains its children's.
func TestExecStatsSerial(t *testing.T) {
	db, _ := testDB()
	tp := newTinyProps()
	plan := threeWayJoinPlan(tp)

	ref := runPlan(t, NewCompiler(db, tp.p), plan)

	c := NewCompiler(db, tp.p)
	st := &ExecStats{}
	c.Opts.Stats = st
	got := runPlan(t, c, plan)
	if !SameBag(got, ref) {
		t.Fatal("stats-wrapped execution changed the result")
	}

	ops := st.Report()
	// Hash_join(Hash_join(File_scan, File_scan), File_scan): 5 operators.
	if len(ops) != 5 {
		t.Fatalf("ops = %d, want 5: %+v", len(ops), ops)
	}
	if ops[0].Op != "Hash_join" || ops[0].Parent != -1 {
		t.Fatalf("root = %+v", ops[0])
	}
	if st.RootRows() != int64(len(ref.Rows)) || ops[0].RowsOut != int64(len(ref.Rows)) {
		t.Fatalf("root rows %d/%d, result %d", st.RootRows(), ops[0].RowsOut, len(ref.Rows))
	}
	var rootIn int64
	for _, op := range ops[1:] {
		if op.Parent < 0 || op.Parent >= op.ID {
			t.Fatalf("child %+v has no earlier parent", op)
		}
		if op.Parent == 0 {
			rootIn += op.RowsOut
		}
	}
	if ops[0].RowsIn != rootIn {
		t.Fatalf("root RowsIn %d != children's output %d", ops[0].RowsIn, rootIn)
	}
	scans := 0
	for _, op := range ops {
		if op.Op == "File_scan" {
			scans++
			if op.RowsOut == 0 {
				t.Fatalf("scan produced no rows: %+v", op)
			}
		}
	}
	if scans != 3 {
		t.Fatalf("scans = %d, want 3", scans)
	}
	kidsNS := make([]int64, len(st.ops))
	for _, si := range st.ops {
		if si.parent >= 0 {
			kidsNS[si.parent] += si.openNS + si.nextNS
		}
	}
	for _, si := range st.ops {
		if own := si.openNS + si.nextNS; own < kidsNS[si.id] {
			t.Errorf("%s #%d: open+next %dns < children's %dns", si.op, si.id, own, kidsNS[si.id])
		}
	}
}

// TestExecStatsDisabled: a nil collector compiles the plan without any
// wrapping (the disabled path must stay shim-free).
func TestExecStatsDisabled(t *testing.T) {
	db, _ := testDB()
	tp := newTinyProps()
	it, err := NewCompiler(db, tp.p).Compile(threeWayJoinPlan(tp))
	if err != nil {
		t.Fatal(err)
	}
	if _, wrapped := it.(*statsIter); wrapped {
		t.Fatal("nil Stats still wrapped the root")
	}
	var st *ExecStats
	if st.Report() != nil || st.RootRows() != 0 {
		t.Fatal("nil collector not inert")
	}
}
