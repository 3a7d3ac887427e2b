package volcano

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"prairie/internal/core"
	"prairie/internal/obs"
)

// runBatch runs items on a pool of workers under a background context.
func runBatch(items []BatchItem, workers int) []BatchResult {
	res, _ := OptimizeBatch(context.Background(), items, BatchOptions{Workers: workers})
	return res
}

// boomWorld returns a test world whose extra transformation rule panics
// in its condition hook after limit calls (limit < 0: never). Run under
// -race in CI, these tests pin the batch-panic deadlock fix.
func boomWorld(limit int) (*testWorld, *int) {
	w := newTestWorld()
	calls := new(int)
	w.rs.AddTrans(&TransRule{
		Name: "boom",
		LHS:  core.POp(w.join, "D3", core.PVar(1, "D1"), core.PVar(2, "D2")),
		RHS:  core.POp(w.join, "D4", core.PVar(2, ""), core.PVar(1, "")),
		Cond: func(b *TBinding) bool {
			*calls++
			if limit >= 0 && *calls > limit {
				panic("boom: injected rule-hook failure")
			}
			return false
		},
	})
	return w, calls
}

// TestBatchWorkerPanicNoDeadlock is the regression test for the feeder
// deadlock: a panicking item must complete the batch (not wedge it) and
// surface the panic in its own BatchResult.Err, leaving the other items
// untouched.
func TestBatchWorkerPanicNoDeadlock(t *testing.T) {
	good := newTestWorld()
	bad, _ := boomWorld(0) // panics on the first condition call
	items := []BatchItem{
		{RS: good.rs, Tree: good.chain(4, 2)},
		{RS: bad.rs, Tree: bad.chain(8, 4, 2)},
		{RS: good.rs, Tree: good.chain(8, 4)},
		{RS: good.rs, Tree: good.chain(16, 8, 4)},
	}
	done := make(chan []BatchResult, 1)
	go func() { done <- runBatch(items, 2) }()
	var results []BatchResult
	select {
	case results = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("OptimizeBatch deadlocked on a panicking worker")
	}
	for i, r := range results {
		if i == 1 {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "panicked") {
				t.Errorf("item 1: Err = %v, want surfaced panic", r.Err)
			}
			if r.Plan != nil {
				t.Error("item 1: plan returned alongside a panic")
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("item %d: %v", i, r.Err)
		}
		if r.Plan == nil {
			t.Errorf("item %d: missing plan", i)
		}
	}
}

// TestBatchPanicOnLaterRepeat: a panic on the second repeat must not
// report the first repeat's successful plan, and elapsed time must cover
// the attempts actually made.
func TestBatchPanicOnLaterRepeat(t *testing.T) {
	// Probe: count condition calls in one clean optimization, then allow
	// exactly that many — repeat 1 succeeds, repeat 2 panics immediately.
	probe, calls := boomWorld(-1)
	if res := runBatch([]BatchItem{{RS: probe.rs, Tree: probe.chain(8, 4, 2)}}, 1); res[0].Err != nil {
		t.Fatalf("probe failed: %v", res[0].Err)
	}
	limit := *calls
	w, _ := boomWorld(limit)
	res := runBatch([]BatchItem{{RS: w.rs, Tree: w.chain(8, 4, 2), Repeats: 3}}, 1)[0]
	if res.Err == nil || !strings.Contains(res.Err.Error(), "panicked") {
		t.Fatalf("Err = %v, want surfaced panic", res.Err)
	}
	if res.Plan != nil {
		t.Error("stale plan from an earlier repeat returned with the panic")
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not reported for the attempts made")
	}
}

// TestBatchErrorElapsedAndStats is the regression test for the zero
// Elapsed / missing stats on failing items: an erroring run must report
// the mean elapsed over its attempts and the failing run's partial
// statistics.
func TestBatchErrorElapsedAndStats(t *testing.T) {
	w := newTestWorld()
	res := runBatch([]BatchItem{{
		RS: w.rs, Tree: w.chain(16, 8, 4, 2),
		Opts: Options{MaxExprs: 3}, Repeats: 2,
	}}, 1)[0]
	if !errors.Is(res.Err, ErrSpaceExhausted) {
		t.Fatalf("Err = %v, want ErrSpaceExhausted", res.Err)
	}
	if res.Elapsed <= 0 {
		t.Error("failing item reported zero Elapsed")
	}
	if res.Stats == nil || res.Stats.Exprs == 0 {
		t.Errorf("failing item missing partial stats: %+v", res.Stats)
	}
}

// TestBatchContextCancelled: a cancelled batch context fails pending
// items fast with the context's error.
func TestBatchContextCancelled(t *testing.T) {
	w := newTestWorld()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := []BatchItem{
		{RS: w.rs, Tree: w.chain(4, 2)},
		{RS: w.rs, Tree: w.chain(8, 4)},
	}
	res, _ := OptimizeBatch(ctx, items, BatchOptions{Workers: 2})
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("item %d: Err = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestBatchConcurrentObservability exercises a single shared Observer
// from every pool worker at once — the race-detector target for the
// metric registry and tracer (run under -race by make race). It also
// pins the BatchReport invariants: per-worker item counts sum to the
// batch size, the aggregate Stats equal the per-item sums, and the
// shared counters record every optimization.
func TestBatchConcurrentObservability(t *testing.T) {
	w := newTestWorld()
	const n = 16
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{RS: w.rs, Tree: w.chain(8, 4, 2)}
	}
	ob := &obs.Observer{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(), RuleTiming: true}
	results, report := OptimizeBatch(context.Background(), items, BatchOptions{Workers: 4, Obs: ob})

	var wantExprs int
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		wantExprs += r.Stats.Exprs
	}
	if report.Items != n || report.Errors != 0 || report.Degraded != 0 {
		t.Errorf("report = %d items %d errors %d degraded, want %d/0/0",
			report.Items, report.Errors, report.Degraded, n)
	}
	gotItems := 0
	for _, ws := range report.Workers {
		gotItems += ws.Items
	}
	if gotItems != n {
		t.Errorf("worker item counts sum to %d, want %d", gotItems, n)
	}
	if report.Agg.Exprs != wantExprs {
		t.Errorf("Agg.Exprs = %d, want per-item sum %d", report.Agg.Exprs, wantExprs)
	}
	if len(report.Agg.TransTime) == 0 {
		t.Error("RuleTiming enabled but aggregate TransTime is empty")
	}
	snap := ob.Metrics.Snapshot()
	for name, want := range map[string]int64{
		"prairie_batch_items_total": n,
		"prairie_optimize_total":    n,
	} {
		if got, _ := snap[name].(int64); got != want {
			t.Errorf("%s = %v, want %d", name, snap[name], want)
		}
	}
	if ob.Tracer.Len() == 0 {
		t.Error("shared tracer recorded no events")
	}
	if s := report.String(); !strings.Contains(s, "queue wait") {
		t.Errorf("report.String() missing queue wait line:\n%s", s)
	}
}

// TestBatchPerItemTimeout: an item's own budget deadline bounds each of
// its optimizations, so the item degrades instead of erroring.
func TestBatchPerItemTimeout(t *testing.T) {
	w := newTestWorld()
	res := runBatch([]BatchItem{{
		RS: w.rs, Tree: w.chain(16, 8, 4, 2), Opts: Options{Budget: Budget{Timeout: time.Nanosecond}},
	}}, 1)[0]
	if res.Err != nil {
		t.Fatalf("timed-out item errored instead of degrading: %v", res.Err)
	}
	if res.Plan == nil || !res.Stats.Degraded || res.Stats.DegradeCause != CauseDeadline {
		t.Errorf("want degraded deadline plan, got plan=%v stats=%+v", res.Plan, res.Stats)
	}
}
