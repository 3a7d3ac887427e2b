package exec

import (
	"time"

	"prairie/internal/data"
	"prairie/internal/obs"
)

// ExecStats collects per-operator runtime statistics for one plan
// execution: rows in/out and Open/Next wall time. Attach one via
// ExecOptions.Stats before Compile; the compiler then wraps every
// operator in a thin counting shim. With Stats nil — the default — the
// iterator tree is built without shims, so unobserved executions stay
// byte-identical.
//
// An ExecStats is meant for one Compile+Run cycle (the flight recorder
// allocates one per request); Report may be called once the plan's
// iterator has been Closed. Execution is serial, so an operator's
// Open+Next time includes the time of its inputs.
type ExecStats struct {
	ops []*statsIter
}

// register allocates the stats slot for one operator. parentPlus1 is
// the parent's id+1 (0 = root), which lets the compiler thread parent
// identity through a zero-valued field.
func (st *ExecStats) register(op string, parentPlus1 int) *statsIter {
	si := &statsIter{op: op, id: len(st.ops), parent: parentPlus1 - 1}
	st.ops = append(st.ops, si)
	return si
}

// Report renders the collected statistics, one entry per operator in
// compile order (parents before children), with RowsIn derived from the
// children's outputs.
func (st *ExecStats) Report() []obs.ExecOpStat {
	if st == nil {
		return nil
	}
	out := make([]obs.ExecOpStat, len(st.ops))
	for i, si := range st.ops {
		out[i] = obs.ExecOpStat{
			ID: si.id, Parent: si.parent, Op: si.op, RowsOut: si.rows,
			OpenUS: si.openNS / int64(time.Microsecond), NextUS: si.nextNS / int64(time.Microsecond),
		}
	}
	for _, si := range st.ops {
		if si.parent >= 0 {
			out[si.parent].RowsIn += si.rows
		}
	}
	return out
}

// RootRows returns the root operator's output cardinality (the result
// row count an executed plan must agree with). Nil-safe.
func (st *ExecStats) RootRows() int64 {
	if st == nil || len(st.ops) == 0 {
		return 0
	}
	return st.ops[0].rows
}

// statsIter wraps one operator with counting and timing. It forwards
// RowHint so pre-sizing still sees through it, and forwards Close
// untouched so the close-discipline invariant is unaffected.
type statsIter struct {
	in     Iterator
	op     string
	id     int
	parent int

	rows   int64
	openNS int64
	nextNS int64
}

func (s *statsIter) Schema() data.Schema { return s.in.Schema() }

func (s *statsIter) RowHint() (int, bool) { return rowHint(s.in) }

func (s *statsIter) Open() error {
	start := time.Now()
	err := s.in.Open()
	s.openNS += time.Since(start).Nanoseconds()
	return err
}

func (s *statsIter) Next() (data.Tuple, bool, error) {
	start := time.Now()
	t, ok, err := s.in.Next()
	s.nextNS += time.Since(start).Nanoseconds()
	if ok {
		s.rows++
	}
	return t, ok, err
}

func (s *statsIter) Close() error { return s.in.Close() }
