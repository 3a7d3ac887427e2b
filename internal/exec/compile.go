package exec

import (
	"fmt"

	"prairie/internal/core"
	"prairie/internal/data"
)

// Props maps the optimizer's descriptor properties the executor needs.
// Absent properties are core.NoProp.
type Props struct {
	Ord core.PropID // tuple_order
	JP  core.PropID // join_predicate
	SP  core.PropID // selection_predicate
	PA  core.PropID // projected_attributes
	MA  core.PropID // mat_attribute (pointer attribute for MAT)
	UA  core.PropID // unnest_attribute
}

// BuildFunc constructs the iterator for one plan node; it compiles the
// node's inputs through the Compiler as needed.
type BuildFunc func(c *Compiler, node *core.Expr) (Iterator, error)

// Compiler turns access plans (core operator trees whose interior nodes
// are algorithms) into iterator trees over a database.
type Compiler struct {
	DB    *data.DB
	P     Props
	Build map[string]BuildFunc
	// Opts configures the engine; set it before Compile.
	Opts ExecOptions
	// curParent threads operator identity to child Compile frames when
	// Opts.Stats is attached: the in-construction operator's stats id
	// plus one (0 = compiling the root).
	curParent int
}

// ExecOptions configures the executor engine (DESIGN.md §4.14).
type ExecOptions struct {
	// Workers is ignored: the executor is a single serial iterator
	// engine. The field remains only because the repository benchmark
	// (perfbench/) still sets it.
	Workers int
	// Stats, when set, makes Compile wrap every operator in a
	// per-operator runtime-stats collector (rows, Open/Next time) for
	// the flight recorder. nil — the default — compiles the bare
	// iterator tree.
	Stats *ExecStats
}

// NewCompiler returns a compiler with the standard algorithm builders
// registered (File_scan, Index_scan, Filter, Project, Nested_loops,
// Hash_join, Merge_join, Pointer_join, Merge_sort, Materialize, Flatten,
// Null).
func NewCompiler(db *data.DB, p Props) *Compiler {
	c := &Compiler{DB: db, P: p, Build: map[string]BuildFunc{}}
	c.Build["File_scan"] = buildFileScan
	c.Build["Index_scan"] = buildIndexScan
	c.Build["Filter"] = buildFilter
	c.Build["Project"] = buildProject
	c.Build["Nested_loops"] = buildNestedLoops
	c.Build["Hash_join"] = buildHashJoin
	c.Build["Merge_join"] = buildMergeJoin
	// Pointer_join is the batched pointer-dereference MAT algorithm:
	// same semantics as Materialize, different cost model.
	c.Build["Pointer_join"] = buildMaterialize
	c.Build["Merge_sort"] = buildMergeSort
	c.Build["Materialize"] = buildMaterialize
	c.Build["Flatten"] = buildFlatten
	c.Build[core.NullName] = buildNull
	return c
}

// Compile builds the iterator tree for a plan.
func (c *Compiler) Compile(plan *core.Expr) (Iterator, error) {
	if plan.IsLeaf() {
		return nil, fmt.Errorf("exec: bare stored file %q; plans access files through scan algorithms", plan.File)
	}
	b, ok := c.Build[plan.Op.Name]
	if !ok {
		return nil, fmt.Errorf("exec: no builder for algorithm %s", plan.Op.Name)
	}
	if c.Opts.Stats == nil {
		return b(c, plan)
	}
	// Stats collection: register this operator before building its
	// inputs (so parents precede children in the report), build the
	// subtree with curParent pointing here, then interpose the counting
	// shim. The shim forwards RowHint, so pre-sizing is unaffected.
	si := c.Opts.Stats.register(plan.Op.Name, c.curParent)
	saved := c.curParent
	c.curParent = si.id + 1
	it, err := b(c, plan)
	c.curParent = saved
	if err != nil {
		return nil, err
	}
	si.in = it
	return si, nil
}

// table resolves a plan leaf to its stored table.
func (c *Compiler) table(leaf *core.Expr) (*data.Table, error) {
	if !leaf.IsLeaf() {
		return nil, fmt.Errorf("exec: scan input must be a stored file, got %s", leaf)
	}
	t, ok := c.DB.Table(leaf.File)
	if !ok {
		return nil, fmt.Errorf("exec: unknown stored file %q", leaf.File)
	}
	return t, nil
}

func (c *Compiler) pred(d *core.Descriptor, id core.PropID) *core.Pred {
	if id == core.NoProp {
		return core.TruePred
	}
	return d.Pred(id)
}

func buildFileScan(c *Compiler, node *core.Expr) (Iterator, error) {
	tab, err := c.table(node.Kids[0])
	if err != nil {
		return nil, err
	}
	return &scanIter{tab: tab, sel: c.pred(node.D, c.P.SP)}, nil
}

func buildIndexScan(c *Compiler, node *core.Expr) (Iterator, error) {
	tab, err := c.table(node.Kids[0])
	if err != nil {
		return nil, err
	}
	ix := core.Attr{}
	if c.P.Ord != core.NoProp {
		if ord := node.D.Order(c.P.Ord); !ord.IsDontCare() && len(ord.By) > 0 {
			ix = ord.By[0]
		}
	}
	if ix == (core.Attr{}) {
		return nil, fmt.Errorf("exec: index scan without an index order on %s", tab.Class.Name)
	}
	return &scanIter{tab: tab, sel: c.pred(node.D, c.P.SP), byIndex: ix}, nil
}

func buildFilter(c *Compiler, node *core.Expr) (Iterator, error) {
	in, err := c.Compile(node.Kids[0])
	if err != nil {
		return nil, err
	}
	return &filterIter{in: in, pred: c.pred(node.D, c.P.SP)}, nil
}

func buildProject(c *Compiler, node *core.Expr) (Iterator, error) {
	in, err := c.Compile(node.Kids[0])
	if err != nil {
		return nil, err
	}
	if c.P.PA == core.NoProp {
		return nil, fmt.Errorf("exec: no projected_attributes property configured")
	}
	return &projectIter{in: in, attrs: node.D.AttrList(c.P.PA)}, nil
}

func (c *Compiler) joinInputs(node *core.Expr) (l, r Iterator, pred *core.Pred, err error) {
	if l, err = c.Compile(node.Kids[0]); err != nil {
		return
	}
	if r, err = c.Compile(node.Kids[1]); err != nil {
		return
	}
	pred = c.pred(node.D, c.P.JP)
	return
}

func buildNestedLoops(c *Compiler, node *core.Expr) (Iterator, error) {
	l, r, pred, err := c.joinInputs(node)
	if err != nil {
		return nil, err
	}
	return &nlJoinIter{l: l, r: r, pred: pred}, nil
}

func buildHashJoin(c *Compiler, node *core.Expr) (Iterator, error) {
	l, r, pred, err := c.joinInputs(node)
	if err != nil {
		return nil, err
	}
	return &hashJoinIter{l: l, r: r, pred: pred}, nil
}

func buildMergeJoin(c *Compiler, node *core.Expr) (Iterator, error) {
	l, r, pred, err := c.joinInputs(node)
	if err != nil {
		return nil, err
	}
	return &mergeJoinIter{l: l, r: r, pred: pred}, nil
}

func buildMergeSort(c *Compiler, node *core.Expr) (Iterator, error) {
	in, err := c.Compile(node.Kids[0])
	if err != nil {
		return nil, err
	}
	if c.P.Ord == core.NoProp {
		return nil, fmt.Errorf("exec: no tuple_order property configured")
	}
	ord := node.D.Order(c.P.Ord)
	if ord.IsDontCare() {
		return nil, fmt.Errorf("exec: merge sort without a concrete order")
	}
	return &sortIter{in: in, by: ord.By}, nil
}

func buildMaterialize(c *Compiler, node *core.Expr) (Iterator, error) {
	in, err := c.Compile(node.Kids[0])
	if err != nil {
		return nil, err
	}
	if c.P.MA == core.NoProp {
		return nil, fmt.Errorf("exec: no mat_attribute property configured")
	}
	refs := node.D.AttrList(c.P.MA)
	if len(refs) != 1 {
		return nil, fmt.Errorf("exec: materialize needs exactly one pointer attribute, got %v", refs)
	}
	return &matIter{c: c, in: in, ref: refs[0]}, nil
}

func buildFlatten(c *Compiler, node *core.Expr) (Iterator, error) {
	in, err := c.Compile(node.Kids[0])
	if err != nil {
		return nil, err
	}
	if c.P.UA == core.NoProp {
		return nil, fmt.Errorf("exec: no unnest_attribute property configured")
	}
	attrs := node.D.AttrList(c.P.UA)
	if len(attrs) != 1 {
		return nil, fmt.Errorf("exec: flatten needs exactly one set attribute, got %v", attrs)
	}
	return &unnestIter{in: in, attr: attrs[0]}, nil
}

func buildNull(c *Compiler, node *core.Expr) (Iterator, error) {
	in, err := c.Compile(node.Kids[0])
	if err != nil {
		return nil, err
	}
	return &nullIter{in: in}, nil
}

// matIter implements MAT's pointer chase: for each input tuple, the
// referenced object (the target-class row whose id equals the pointer
// value) is appended to the tuple.
type matIter struct {
	c   *Compiler
	in  Iterator
	ref core.Attr

	target *data.Table
	refCol int
	idCol  int
	out    data.Schema
	// byID hashes target ids to candidate row ordinals for pointers the
	// ordinal fast path misses; slices keep scan order so the first Equal
	// row still wins. It is built on the first miss, not in Open: stored
	// objects have id == ordinal, so most chases never need it.
	byID map[uint64][]int
}

func (m *matIter) Schema() data.Schema { return m.out }

// RowHint passes through the input's bound: a pointer chase appends
// columns and only drops rows (dangling pointers).
func (m *matIter) RowHint() (int, bool) { return rowHint(m.in) }

func (m *matIter) Open() error {
	if err := m.in.Open(); err != nil {
		return err
	}
	col, ok := m.in.Schema().Col(m.ref)
	if !ok {
		return fmt.Errorf("exec: pointer attribute %v not in input", m.ref)
	}
	m.refCol = col
	// Resolve the target class from the catalog metadata on the table.
	srcTab, ok := m.c.DB.Table(m.ref.Rel)
	if !ok {
		return fmt.Errorf("exec: unknown source class %q for pointer %v", m.ref.Rel, m.ref)
	}
	attr, ok := srcTab.Class.Attr(m.ref.Name)
	if !ok || attr.Ref == "" {
		return fmt.Errorf("exec: %v is not a pointer attribute", m.ref)
	}
	m.target, ok = m.c.DB.Table(attr.Ref)
	if !ok {
		return fmt.Errorf("exec: unknown target class %q", attr.Ref)
	}
	m.idCol, ok = m.target.Schema.Col(core.Attr{Rel: m.target.Class.Name, Name: "id"})
	if !ok {
		return fmt.Errorf("exec: target class %s has no id attribute", m.target.Class.Name)
	}
	m.byID = nil
	m.out = m.in.Schema().Concat(m.target.Schema)
	return nil
}

func (m *matIter) Next() (data.Tuple, bool, error) {
	for {
		t, ok, err := m.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		ptr := t[m.refCol]
		// Objects are stored with id == row ordinal; fall back to the
		// id hash when the row at that ordinal is some other object
		// (reordered rows) or the ordinal is out of range (dangling or
		// scaled-down references).
		if ptr.I >= 0 && ptr.I < int64(len(m.target.Rows)) && m.target.Rows[ptr.I][m.idCol].Equal(ptr) {
			return concatTuple(t, m.target.Rows[ptr.I]), true, nil
		}
		if m.byID == nil {
			m.buildIDIndex()
		}
		for _, i := range m.byID[ptr.Hash()] {
			if m.target.Rows[i][m.idCol].Equal(ptr) {
				return concatTuple(t, m.target.Rows[i]), true, nil
			}
		}
		// Dangling pointer: drop the tuple (inner-join semantics).
	}
}

// buildIDIndex hashes every target row's id to its ordinal.
func (m *matIter) buildIDIndex() {
	m.byID = make(map[uint64][]int, len(m.target.Rows))
	for i, row := range m.target.Rows {
		h := row[m.idCol].Hash()
		m.byID[h] = append(m.byID[h], i)
	}
}

func (m *matIter) Close() error { return m.in.Close() }
