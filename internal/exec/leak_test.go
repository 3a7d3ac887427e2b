package exec

import (
	"fmt"
	"strings"
	"testing"

	"prairie/internal/core"
	"prairie/internal/data"
)

// mockIter is an instrumented leaf iterator: it serves a fixed row set,
// can be told to fail at Open, at the k-th Next, or at Close, and
// records every lifecycle call so tests can assert the package's close
// discipline — every successful Open is matched by exactly one Close,
// no matter where an operator's Open or Next failed.
type mockIter struct {
	name   string
	schema data.Schema
	rows   []data.Tuple

	failOpen   bool
	failNextAt int // 1-based Next call that errors; 0 = never
	failClose  bool

	open     bool
	pos      int
	nexts    int
	opens    int
	closes   int
	spurious int // Close calls while not open (safe no-ops)
}

func (m *mockIter) Schema() data.Schema { return m.schema }

func (m *mockIter) Open() error {
	if m.failOpen {
		return fmt.Errorf("mock %s: injected open failure", m.name)
	}
	m.open = true
	m.opens++
	m.pos = 0
	m.nexts = 0
	return nil
}

func (m *mockIter) Next() (data.Tuple, bool, error) {
	m.nexts++
	if m.failNextAt > 0 && m.nexts >= m.failNextAt {
		return nil, false, fmt.Errorf("mock %s: injected next failure", m.name)
	}
	if m.pos >= len(m.rows) {
		return nil, false, nil
	}
	t := m.rows[m.pos]
	m.pos++
	return t, true, nil
}

func (m *mockIter) Close() error {
	if !m.open {
		m.spurious++
		return nil
	}
	m.open = false
	m.closes++
	if m.failClose {
		return fmt.Errorf("mock %s: injected close failure", m.name)
	}
	return nil
}

// checkPaired asserts the open/close pairing invariant on each mock.
func checkPaired(t *testing.T, mocks ...*mockIter) {
	t.Helper()
	for _, m := range mocks {
		if m.open {
			t.Errorf("mock %s left open (opens %d, closes %d)", m.name, m.opens, m.closes)
		}
		if m.opens != m.closes {
			t.Errorf("mock %s: %d opens vs %d closes", m.name, m.opens, m.closes)
		}
	}
}

func intRows(vals ...int64) []data.Tuple {
	out := make([]data.Tuple, len(vals))
	for i, v := range vals {
		out[i] = data.Tuple{data.IntD(v)}
	}
	return out
}

func leftMock(vals ...int64) *mockIter {
	return &mockIter{name: "left", schema: data.Schema{core.A("C1", "a")}, rows: intRows(vals...)}
}

func rightMock(vals ...int64) *mockIter {
	return &mockIter{name: "right", schema: data.Schema{core.A("C2", "a")}, rows: intRows(vals...)}
}

var mockJoinPred = core.EqAttr(core.A("C1", "a"), core.A("C2", "a"))

// joinOver builds each join algorithm over the two mocks.
func joinOver(kind string, l, r Iterator) Iterator {
	switch kind {
	case "nl":
		return &nlJoinIter{l: l, r: r, pred: mockJoinPred}
	case "hash":
		return &hashJoinIter{l: l, r: r, pred: mockJoinPred}
	case "merge":
		return &mergeJoinIter{l: l, r: r, pred: mockJoinPred}
	}
	panic("unknown join kind " + kind)
}

// TestJoinCloseDisciplineUnderFailures injects failures at every stage
// of every join algorithm's lifecycle and asserts no input leaks open.
// Before the rework, a failing right Open or right drain left the left
// input open forever, and mergeJoinIter.Close was a no-op even after a
// partial Open.
func TestJoinCloseDisciplineUnderFailures(t *testing.T) {
	type scenario struct {
		name    string
		mutate  func(l, r *mockIter)
		wantErr string
	}
	scenarios := []scenario{
		{"success", func(l, r *mockIter) {}, ""},
		{"left-open-fails", func(l, r *mockIter) { l.failOpen = true }, "injected open"},
		{"right-open-fails", func(l, r *mockIter) { r.failOpen = true }, "injected open"},
		{"right-next-fails", func(l, r *mockIter) { r.failNextAt = 2 }, "injected next"},
		{"left-next-fails", func(l, r *mockIter) { l.failNextAt = 2 }, "injected next"},
		{"left-close-fails", func(l, r *mockIter) { l.failClose = true }, "injected close"},
		{"right-close-fails", func(l, r *mockIter) { r.failClose = true }, "injected close"},
	}
	for _, kind := range []string{"nl", "hash", "merge"} {
		for _, sc := range scenarios {
			t.Run(kind+"/"+sc.name, func(t *testing.T) {
				l, r := leftMock(1, 2, 3), rightMock(1, 2, 3)
				sc.mutate(l, r)
				_, err := Run(joinOver(kind, l, r))
				if sc.wantErr == "" && err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if sc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), sc.wantErr)) {
					t.Fatalf("err = %v, want %q", err, sc.wantErr)
				}
				checkPaired(t, l, r)
			})
		}
	}
}

// TestJoinPredicateErrorCloseDiscipline: a predicate that cannot be
// evaluated fails the run mid-probe; both inputs must still come back
// closed.
func TestJoinPredicateErrorCloseDiscipline(t *testing.T) {
	badPred := core.EqAttr(core.A("C9", "zz"), core.A("C2", "a")) // C9.zz in neither schema
	for _, kind := range []string{"nl", "hash", "merge"} {
		t.Run(kind, func(t *testing.T) {
			l, r := leftMock(1, 2), rightMock(1, 2)
			var it Iterator
			switch kind {
			case "nl":
				it = &nlJoinIter{l: l, r: r, pred: badPred}
			case "hash", "merge":
				// hash/merge need an equi term to key on; add a broken
				// residual conjunct instead.
				pred := core.And(mockJoinPred, core.EqConst(core.A("C9", "zz"), core.Int(1)))
				if kind == "hash" {
					it = &hashJoinIter{l: l, r: r, pred: pred}
				} else {
					it = &mergeJoinIter{l: l, r: r, pred: pred}
				}
			}
			if _, err := Run(it); err == nil {
				t.Fatal("predicate over a missing attribute did not fail")
			}
			checkPaired(t, l, r)
		})
	}
}

// TestUnaryCloseDisciplineUnderFailures drives the unary operators over
// a failing input and asserts pairing.
func TestUnaryCloseDisciplineUnderFailures(t *testing.T) {
	mk := func(m *mockIter, op string) Iterator {
		switch op {
		case "filter":
			return &filterIter{in: m, pred: core.EqConst(core.A("C1", "a"), core.Int(1))}
		case "project":
			return &projectIter{in: m, attrs: core.Attrs{core.A("C1", "a")}}
		case "project-missing":
			return &projectIter{in: m, attrs: core.Attrs{core.A("C9", "zz")}}
		case "sort":
			return &sortIter{in: m, by: []core.Attr{core.A("C1", "a")}}
		case "sort-missing":
			return &sortIter{in: m, by: []core.Attr{core.A("C9", "zz")}}
		case "null":
			return &nullIter{in: m}
		}
		panic("unknown op " + op)
	}
	for _, op := range []string{"filter", "project", "project-missing", "sort", "sort-missing", "null"} {
		for _, inject := range []string{"none", "open", "next", "close"} {
			t.Run(op+"/"+inject, func(t *testing.T) {
				m := leftMock(3, 1, 2)
				switch inject {
				case "open":
					m.failOpen = true
				case "next":
					m.failNextAt = 2
				case "close":
					m.failClose = true
				}
				_, err := Run(mk(m, op))
				wantErr := inject != "none" || strings.Contains(op, "missing")
				if wantErr && err == nil {
					t.Fatal("expected an error")
				}
				if !wantErr && err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				checkPaired(t, m)
			})
		}
	}
}

// TestUnnestAndMatCloseDiscipline covers the remaining operators, which
// need shaped inputs: unnest a non-set column (error) and a pointer
// chase over a failing input.
func TestUnnestAndMatCloseDiscipline(t *testing.T) {
	// Unnest over an int column: type error mid-stream.
	m := leftMock(1, 2)
	if _, err := Run(&unnestIter{in: m, attr: core.A("C1", "a")}); err == nil {
		t.Error("unnest of a non-set column did not fail")
	}
	checkPaired(t, m)

	// Pointer chase whose input fails mid-stream.
	db, _ := testDB()
	tp := newTinyProps()
	c := NewCompiler(db, tp.p)
	tab := db.MustTable("C1")
	in := &mockIter{name: "matin", schema: tab.Schema, rows: tab.Rows, failNextAt: 2}
	if _, err := Run(&matIter{c: c, in: in, ref: core.A("C1", "ref")}); err == nil {
		t.Error("failing input did not surface through the pointer chase")
	}
	checkPaired(t, in)
}

// TestRunPropagatesCloseError: a clean drain whose Close fails must
// report the close error instead of discarding it.
func TestRunPropagatesCloseError(t *testing.T) {
	m := leftMock(1, 2)
	m.failClose = true
	res, err := Run(m)
	if err == nil || !strings.Contains(err.Error(), "injected close") {
		t.Fatalf("err = %v, want the close failure", err)
	}
	if res != nil {
		t.Error("result returned alongside a close error")
	}
	// An earlier error wins over the close error.
	m2 := leftMock(1, 2)
	m2.failNextAt = 1
	m2.failClose = true
	if _, err := Run(m2); err == nil || !strings.Contains(err.Error(), "injected next") {
		t.Fatalf("err = %v, want the next failure to win", err)
	}
}

// TestCloseIdempotent: closing twice (and closing something never
// opened) is safe on every operator.
func TestCloseIdempotent(t *testing.T) {
	l, r := leftMock(1), rightMock(1)
	j := joinOver("hash", l, r)
	if err := j.Close(); err != nil {
		t.Fatalf("close before open: %v", err)
	}
	if _, err := Run(j); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	checkPaired(t, l, r)

	s := &sortIter{in: leftMock(2, 1), by: []core.Attr{core.A("C1", "a")}}
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("sort second close: %v", err)
	}
}

// TestEmptyInputEarlyTermination: an empty build side (hash/nl) or an
// empty merge input must end the join without pulling the other side's
// tuples.
func TestEmptyInputEarlyTermination(t *testing.T) {
	t.Run("hash-empty-build", func(t *testing.T) {
		l, r := leftMock(1, 2, 3), rightMock()
		res, err := Run(joinOver("hash", l, r))
		if err != nil || len(res.Rows) != 0 {
			t.Fatalf("res=%v err=%v", res, err)
		}
		if l.nexts != 0 {
			t.Errorf("empty build side still pulled %d probe tuples", l.nexts)
		}
		checkPaired(t, l, r)
	})
	t.Run("nl-empty-inner", func(t *testing.T) {
		l, r := leftMock(1, 2, 3), rightMock()
		res, err := Run(joinOver("nl", l, r))
		if err != nil || len(res.Rows) != 0 {
			t.Fatalf("res=%v err=%v", res, err)
		}
		if l.nexts != 0 {
			t.Errorf("empty inner still pulled %d outer tuples", l.nexts)
		}
		checkPaired(t, l, r)
	})
	t.Run("merge-empty-left", func(t *testing.T) {
		l, r := leftMock(), rightMock(1, 2, 3)
		res, err := Run(joinOver("merge", l, r))
		if err != nil || len(res.Rows) != 0 {
			t.Fatalf("res=%v err=%v", res, err)
		}
		if r.nexts != 0 {
			t.Errorf("empty left still pulled %d right tuples", r.nexts)
		}
		checkPaired(t, l, r)
	})
	t.Run("merge-empty-right", func(t *testing.T) {
		l, r := leftMock(1, 2, 3), rightMock()
		res, err := Run(joinOver("merge", l, r))
		if err != nil || len(res.Rows) != 0 {
			t.Fatalf("res=%v err=%v", res, err)
		}
		if l.nexts > 1 {
			t.Errorf("empty right still pulled %d left tuples", l.nexts)
		}
		checkPaired(t, l, r)
	})
}

// TestMergeJoinStreamsGroups pins the streaming semantics: duplicate
// keys on both sides produce the group-wise cross product, identical to
// the nested-loops result, without materializing the whole output.
func TestMergeJoinStreamsGroups(t *testing.T) {
	lv := []int64{1, 1, 2, 4, 4, 4, 7}
	rv := []int64{1, 2, 2, 4, 4, 6}
	mres, err := Run(joinOver("merge", leftMock(lv...), rightMock(rv...)))
	if err != nil {
		t.Fatal(err)
	}
	nres, err := Run(joinOver("nl", leftMock(lv...), rightMock(rv...)))
	if err != nil {
		t.Fatal(err)
	}
	if len(mres.Rows) == 0 || !SameBag(mres, nres) {
		t.Fatalf("merge join (%d rows) disagrees with nested loops (%d rows)", len(mres.Rows), len(nres.Rows))
	}
}

// TestMergeJoinDetectsUnsortedMockInput pins lazy sortedness detection
// deterministically (the table-backed test relies on random data).
func TestMergeJoinDetectsUnsortedMockInput(t *testing.T) {
	l, r := leftMock(1, 3, 2), rightMock(1, 2, 3)
	if _, err := Run(joinOver("merge", l, r)); err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Errorf("unsorted left input not detected: %v", err)
	}
	checkPaired(t, l, r)

	l2, r2 := leftMock(1, 2, 3), rightMock(2, 1, 3)
	if _, err := Run(joinOver("merge", l2, r2)); err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Errorf("unsorted right input not detected: %v", err)
	}
	checkPaired(t, l2, r2)
}

// TestHashJoinCollisionAndMissingKey: (1) colliding hash buckets must
// be resolved by the Equal guard, never by hash identity; (2) a right
// input that lacks the join key fails Open with a clear error and no
// leak.
func TestHashJoinCollisionAndMissingKey(t *testing.T) {
	// Clean reference join.
	ref, err := Run(joinOver("hash", leftMock(1, 2, 2), rightMock(1, 1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) != 4 {
		t.Fatalf("reference join rows = %d, want 4", len(ref.Rows))
	}

	// Simulate a full collision: every build row lands in both keys'
	// buckets, as if Hash() mapped 1 and 2 together. The Equal guard in
	// Next must filter the aliens out and reproduce the clean result.
	j := &hashJoinIter{l: leftMock(1, 2, 2), r: rightMock(1, 1, 2), pred: mockJoinPred}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	var all []data.Tuple
	for _, b := range j.buckets {
		all = append(all, b...)
	}
	h1, h2 := data.IntD(1).Hash(), data.IntD(2).Hash()
	j.buckets[h1] = all
	j.buckets[h2] = all
	got := &Result{Schema: j.Schema()}
	for {
		tp, ok, err := j.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got.Rows = append(got.Rows, tp)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !SameBag(got, ref) {
		t.Errorf("collided buckets changed the join: %d rows vs %d", len(got.Rows), len(ref.Rows))
	}

	// Missing right key: C2.a absent from the right schema.
	l := leftMock(1, 2)
	r := &mockIter{name: "right", schema: data.Schema{core.A("C2", "b")}, rows: intRows(1, 2)}
	_, err = Run(&hashJoinIter{l: l, r: r, pred: mockJoinPred})
	if err == nil || !strings.Contains(err.Error(), "not in right input") {
		t.Errorf("missing right key: err = %v", err)
	}
	checkPaired(t, l, r)
}
