package exec

import (
	"fmt"

	"prairie/internal/core"
	"prairie/internal/data"
)

// closeTwo closes whichever join inputs are still open, clearing the
// flags so a second Close is a no-op; the first error wins. Every join
// iterator routes Close through it, which is what makes the package
// invariant hold: Close is always safe — after a partial Open, after an
// Open that failed, after a previous Close — and releases exactly what
// is still held.
func closeTwo(l Iterator, lOpen *bool, r Iterator, rOpen *bool) error {
	var err error
	if *lOpen {
		*lOpen = false
		err = l.Close()
	}
	if *rOpen {
		*rOpen = false
		if e := r.Close(); err == nil {
			err = e
		}
	}
	return err
}

// concatTuple returns l followed by r in one exact-width allocation: the
// output row of every join and pointer chase is built here, so this is
// the executor's dominant allocation site.
func concatTuple(l, r data.Tuple) data.Tuple {
	out := make(data.Tuple, len(l)+len(r))
	copy(out, l)
	copy(out[len(l):], r)
	return out
}

// nlJoinIter is the nested-loops join: for each outer tuple, scan the
// (materialized) inner input.
type nlJoinIter struct {
	l, r         Iterator
	pred         *core.Pred
	out          data.Schema
	inner        []data.Tuple
	cur          data.Tuple
	pos          int
	lOpen, rOpen bool
	done         bool
}

func (j *nlJoinIter) Schema() data.Schema { return j.out }

func (j *nlJoinIter) Open() error {
	// Open inputs before reading schemas: some iterators (Materialize)
	// only know their schema once opened.
	if err := j.l.Open(); err != nil {
		return err
	}
	j.lOpen = true
	if err := j.r.Open(); err != nil {
		return err
	}
	j.rOpen = true
	j.out = j.l.Schema().Concat(j.r.Schema())
	j.inner = nil
	for {
		t, ok, err := j.r.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		j.inner = append(j.inner, t)
	}
	j.rOpen = false
	if err := j.r.Close(); err != nil {
		return err
	}
	j.cur = nil
	j.pos = 0
	// Empty inner input: no tuple can join, so never pull the outer.
	j.done = len(j.inner) == 0
	return nil
}

func (j *nlJoinIter) Next() (data.Tuple, bool, error) {
	if j.done {
		return nil, false, nil
	}
	for {
		if j.cur == nil {
			t, ok, err := j.l.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.cur = t
			j.pos = 0
		}
		for j.pos < len(j.inner) {
			inner := j.inner[j.pos]
			j.pos++
			joined := concatTuple(j.cur, inner)
			ok, err := EvalPred(j.pred, j.out, joined)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return joined, true, nil
			}
		}
		j.cur = nil
	}
}

func (j *nlJoinIter) Close() error { return closeTwo(j.l, &j.lOpen, j.r, &j.rOpen) }

// hashJoinIter is an equi-join: it builds a hash table on the right
// input's join attribute and probes with the left. Residual conjuncts of
// the predicate are applied after probing. When the build input reports
// a row-count hint the table is pre-sized, avoiding incremental rehash
// of the bucket map.
type hashJoinIter struct {
	l, r         Iterator
	pred         *core.Pred
	lk, rk       core.Attr
	out          data.Schema
	lCol, rCol   int
	buckets      map[uint64][]data.Tuple
	cur          data.Tuple
	matches      []data.Tuple
	matchPos     int
	lOpen, rOpen bool
	done         bool
}

func (j *hashJoinIter) Schema() data.Schema { return j.out }

func (j *hashJoinIter) Open() error {
	if err := j.l.Open(); err != nil {
		return err
	}
	j.lOpen = true
	if err := j.r.Open(); err != nil {
		return err
	}
	j.rOpen = true
	j.out = j.l.Schema().Concat(j.r.Schema())
	var err error
	if j.lk, j.rk, err = equiKeys(j.pred, j.l.Schema()); err != nil {
		return err
	}
	lCol, ok := j.l.Schema().Col(j.lk)
	if !ok {
		return fmt.Errorf("exec: hash join key %v not in left input", j.lk)
	}
	j.lCol = lCol
	// Resolve and validate the right key column once; Next reuses it.
	rCol, ok := j.r.Schema().Col(j.rk)
	if !ok {
		return fmt.Errorf("exec: hash join key %v not in right input", j.rk)
	}
	j.rCol = rCol
	size, _ := rowHint(j.r)
	j.buckets = make(map[uint64][]data.Tuple, size)
	for {
		t, ok, err := j.r.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		h := t[rCol].Hash()
		j.buckets[h] = append(j.buckets[h], t)
	}
	j.rOpen = false
	if err := j.r.Close(); err != nil {
		return err
	}
	j.cur = nil
	j.matches = nil
	j.matchPos = 0
	// Empty build side: no probe can match, so never pull the left.
	j.done = len(j.buckets) == 0
	return nil
}

func (j *hashJoinIter) Next() (data.Tuple, bool, error) {
	if j.done {
		return nil, false, nil
	}
	for {
		for j.matchPos < len(j.matches) {
			inner := j.matches[j.matchPos]
			j.matchPos++
			if !j.cur[j.lCol].Equal(inner[j.rCol]) {
				continue // hash collision
			}
			joined := concatTuple(j.cur, inner)
			ok, err := EvalPred(j.pred, j.out, joined)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return joined, true, nil
			}
		}
		t, ok, err := j.l.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.cur = t
		j.matches = j.buckets[t[j.lCol].Hash()]
		j.matchPos = 0
	}
}

func (j *hashJoinIter) Close() error { return closeTwo(j.l, &j.lOpen, j.r, &j.rOpen) }

// mergeJoinIter is an equi-join over inputs sorted on the join
// attributes. It streams: only the current right-side group of equal
// keys is buffered, so memory is bounded by the widest key group rather
// than the full join output. It verifies the sortedness it depends on
// incrementally — as tuples are consumed — and fails loudly if an
// optimizer bug delivers unsorted input; tuples past the point where
// one side exhausts are never read, which is also the early-termination
// path for an empty input.
type mergeJoinIter struct {
	l, r         Iterator
	pred         *core.Pred
	lk, rk       core.Attr
	out          data.Schema
	lCol, rCol   int
	lOpen, rOpen bool

	lt           data.Tuple // current left tuple; nil once the left is exhausted
	rNext        data.Tuple // right lookahead past the buffered group; nil once exhausted
	lPrev, rPrev data.Tuple // sortedness witnesses
	group        []data.Tuple
	groupKey     data.Datum
	haveGroup    bool
	gi           int
	done         bool
}

func (j *mergeJoinIter) Schema() data.Schema { return j.out }

func (j *mergeJoinIter) Open() error {
	if err := j.l.Open(); err != nil {
		return err
	}
	j.lOpen = true
	if err := j.r.Open(); err != nil {
		return err
	}
	j.rOpen = true
	j.out = j.l.Schema().Concat(j.r.Schema())
	var err error
	if j.lk, j.rk, err = equiKeys(j.pred, j.l.Schema()); err != nil {
		return err
	}
	var ok bool
	if j.lCol, ok = j.l.Schema().Col(j.lk); !ok {
		return fmt.Errorf("exec: merge join key %v not in left input", j.lk)
	}
	if j.rCol, ok = j.r.Schema().Col(j.rk); !ok {
		return fmt.Errorf("exec: merge join key %v not in right input", j.rk)
	}
	j.lt, j.rNext, j.lPrev, j.rPrev = nil, nil, nil, nil
	j.group, j.haveGroup, j.gi, j.done = j.group[:0], false, 0, false
	// Prime one tuple of lookahead per side; an empty side ends the
	// join before the other side is read at all.
	if err := j.advanceLeft(); err != nil {
		return err
	}
	if j.lt == nil {
		j.done = true
		return nil
	}
	if err := j.advanceRight(); err != nil {
		return err
	}
	if j.rNext == nil {
		j.done = true
	}
	return nil
}

// advanceLeft reads the next left tuple into lt (nil at end of stream),
// verifying the sort order the merge depends on.
func (j *mergeJoinIter) advanceLeft() error {
	t, ok, err := j.l.Next()
	if err != nil {
		return err
	}
	if !ok {
		j.lt = nil
		return nil
	}
	if j.lPrev != nil && t[j.lCol].Less(j.lPrev[j.lCol]) {
		return fmt.Errorf("exec: merge join left input not sorted on %v", j.lk)
	}
	j.lPrev, j.lt = t, t
	return nil
}

// advanceRight reads the next right tuple into rNext (nil at end of
// stream), verifying the sort order.
func (j *mergeJoinIter) advanceRight() error {
	t, ok, err := j.r.Next()
	if err != nil {
		return err
	}
	if !ok {
		j.rNext = nil
		return nil
	}
	if j.rPrev != nil && t[j.rCol].Less(j.rPrev[j.rCol]) {
		return fmt.Errorf("exec: merge join right input not sorted on %v", j.rk)
	}
	j.rPrev, j.rNext = t, t
	return nil
}

func (j *mergeJoinIter) Next() (data.Tuple, bool, error) {
	for {
		if j.done {
			return nil, false, nil
		}
		// Pair the current left tuple with the buffered key group.
		if j.haveGroup && j.lt != nil && j.lt[j.lCol].Equal(j.groupKey) {
			if j.gi < len(j.group) {
				rt := j.group[j.gi]
				j.gi++
				joined := concatTuple(j.lt, rt)
				ok, err := EvalPred(j.pred, j.out, joined)
				if err != nil {
					return nil, false, err
				}
				if ok {
					return joined, true, nil
				}
				continue
			}
			// This left tuple has seen the whole group; next left tuple
			// may share the key (group-wise cross product).
			if err := j.advanceLeft(); err != nil {
				return nil, false, err
			}
			j.gi = 0
			continue
		}
		// The left side moved past the group (sorted inputs: it can
		// never come back) or no group is loaded yet: discard and align.
		j.haveGroup = false
		if j.lt == nil || j.rNext == nil {
			j.done = true
			continue
		}
		lv, rv := j.lt[j.lCol], j.rNext[j.rCol]
		switch {
		case lv.Less(rv):
			if err := j.advanceLeft(); err != nil {
				return nil, false, err
			}
		case rv.Less(lv):
			if err := j.advanceRight(); err != nil {
				return nil, false, err
			}
		default:
			// Keys match: buffer the full right group for this key.
			j.groupKey = rv
			j.group = append(j.group[:0], j.rNext)
			for {
				if err := j.advanceRight(); err != nil {
					return nil, false, err
				}
				if j.rNext == nil || !j.rNext[j.rCol].Equal(j.groupKey) {
					break
				}
				j.group = append(j.group, j.rNext)
			}
			j.haveGroup = true
			j.gi = 0
		}
	}
}

func (j *mergeJoinIter) Close() error { return closeTwo(j.l, &j.lOpen, j.r, &j.rOpen) }

// equiKeys extracts the single equi-join term's attributes, oriented so
// the first belongs to the left schema.
func equiKeys(pred *core.Pred, left data.Schema) (l, r core.Attr, err error) {
	var term *core.Pred
	for _, t := range pred.Conjuncts() {
		if t.IsEquiJoin() {
			term = t
			break
		}
	}
	if term == nil {
		return core.Attr{}, core.Attr{}, fmt.Errorf("exec: join predicate %v has no equi term", pred)
	}
	if _, ok := left.Col(term.Left); ok {
		return term.Left, term.Right, nil
	}
	if _, ok := left.Col(term.Right); ok {
		return term.Right, term.Left, nil
	}
	return core.Attr{}, core.Attr{}, fmt.Errorf("exec: equi term %v matches neither input", term)
}
