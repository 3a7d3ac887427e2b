package experiments

import (
	"testing"
)

// TestExecBench smoke-runs the executor bench at a tiny scale: every
// workload, the deepest chain included, must verify against the naive
// oracle (the sweep errors out on any disagreement).
func TestExecBench(t *testing.T) {
	tab, err := ExecBench(Options{Rows: 64, Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 workloads", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Errorf("row %v has %d cells, header has %d", row, len(row), len(tab.Header))
		}
		if row[2] == "-" {
			t.Errorf("%s skipped the naive oracle", row[0])
		}
	}
}
