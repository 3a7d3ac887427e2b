package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		want, q float64
	}{
		{5, 0.99, 0.5},      // too small for any tail: the median
		{30, 0.99, 0.5},     // p75 has 7 beyond, p90 only 3
		{100, 0.99, 0.9},    // p99 has 1 beyond, p95 has 5, p90 has 10
		{999, 0.99, 0.95},   // one short of p99's ten
		{1000, 0.99, 0.99},  // exactly ten beyond p99
		{20000, 0.99, 0.99}, // never above what the workload asks for
		{20000, 0.999, 0.999},
	} {
		got := tail(seq(tc.n), tc.want)
		if got.Q != tc.q {
			t.Errorf("n=%d want p%g: reported p%g, expected p%g", tc.n, 100*tc.want, 100*got.Q, 100*tc.q)
		}
		if got.N != tc.n {
			t.Errorf("n=%d: sample count %d", tc.n, got.N)
		}
		if tc.q > 0.5 && got.Beyond < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", tc.n, 100*got.Q, got.Beyond)
		}
		if wantV := float64(rankOf(got.Q, tc.n) + 1); got.Value != wantV {
			t.Errorf("n=%d p%g = %v, want %v", tc.n, 100*got.Q, got.Value, wantV)
		}
	}
	// Failed requests are +Inf samples and count against the tail.
	xs := seq(1000)
	for i := 980; i < 1000; i++ {
		xs[i] = inf
	}
	if got := tail(xs, 0.99); !math.IsInf(got.Value, 1) {
		t.Errorf("20 failures in 1000: p99 = %v, want +Inf", got.Value)
	}
}

func TestWindowTail(t *testing.T) {
	// Five windows of 1000 with a stall in one: the median of the window
	// p99s ignores it, while a plain p99 over the whole sample would not.
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i%1000) / 1000
	}
	for i := 2000; i < 2100; i++ {
		xs[i] = 50
	}
	got := windowTail(xs, 0.99)
	if got.Windows != 5 || got.Value != 0.989 {
		t.Errorf("windowTail = %+v, want 5 windows with p99 0.989", got)
	}
	if plain := tail(sorted(xs), 0.99); plain.Value != 50 {
		t.Errorf("plain p99 = %v, want the stall", plain.Value)
	}
	if short := windowTail(seq(2500), 0.99); short.Windows != 0 || short.Q != 0.99 {
		t.Errorf("two windows' worth should fall back to one p99, got %+v", short)
	}
}

// TestOpenLoopChargesStall: a handler that stalls on one request holds
// up the requests due behind it; their latency is timed from when they
// were due, so each carries the part of the stall it waited through.
func TestOpenLoopChargesStall(t *testing.T) {
	const gap, stall, stallAt = 2 * time.Millisecond, 60 * time.Millisecond, 10
	ops := make([]op, 40)
	for i := range ops {
		ops[i] = op{Kind: opOptimize, Due: time.Duration(i) * gap}
	}
	n := 0
	send := func(ctx context.Context, o op) (result, error) {
		n++
		if n == stallAt+1 {
			time.Sleep(stall)
		}
		return result{Out: outOK}, nil
	}
	ss, err := openLoop(context.Background(), ops, 1, send)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != len(ops) {
		t.Fatalf("%d samples for %d ops", len(ss), len(ops))
	}
	stallEnd := ss[stallAt].End
	for _, s := range ss[stallAt+1:] {
		if s.Due >= stallEnd {
			break
		}
		owed := float64(stallEnd-s.Due) / float64(time.Millisecond)
		if s.latency() < owed {
			t.Errorf("op %d due during the stall: latency %.1fms, less than the %.1fms it waited", s.Op, s.latency(), owed)
		}
		if s.late() < owed-1 {
			t.Errorf("op %d: generator lateness %.1fms, want about %.1fms", s.Op, s.late(), owed)
		}
	}
	if l := ss[stallAt+1].latency(); l < 50 {
		t.Errorf("the op right behind the stall reads %.1fms, want most of the %v stall", l, stall)
	}
	// A closed loop times from the send, so the same stall is charged
	// only to the request that stalled.
	n = 0
	cs, err := closedLoop(context.Background(), fromSlice(ops), 1, time.Minute, send)
	if err != nil {
		t.Fatal(err)
	}
	if l := cs[stallAt+1].latency(); l > 20 {
		t.Errorf("closed loop charged %.1fms to the request after the stall", l)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{ID: 0, Parent: -1, StartNS: ms(0), EndNS: ms(100)},
		{ID: 1, Parent: 0, StartNS: ms(10), EndNS: ms(40)}, // overlaps span 2
		{ID: 2, Parent: 0, StartNS: ms(30), EndNS: ms(50)},
		{ID: 3, Parent: 1, StartNS: ms(15), EndNS: ms(20)},  // nested in 1
		{ID: 4, Parent: 0, StartNS: ms(90), EndNS: ms(120)}, // runs past its parent
		{ID: 5, Parent: 0, StartNS: ms(60), EndNS: ms(70), Background: true},
	}
	want := []int64{100 - 40 - 10, 30 - 5, 20, 5, 30, 10}
	for i, got := range selfTimes(spans) {
		if got != time.Duration(ms(want[i])) {
			t.Errorf("span %d self time %v, want %dms", i, got, want[i])
		}
	}
}

// fakeEnv points the HTTP sender at a handler standing in for the
// service, with one pool query whose reference plan is "P" at cost 2.
func fakeEnv(t *testing.T, h http.HandlerFunc) *env {
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	wl := &workload{Tier: "full", TailQ: 0.99, Pool: []query{{World: wPrairie, Spec: spec("E1", 2, "")}}}
	return &env{wl: wl, base: ts.URL, client: ts.Client(), bodies: [][]byte{[]byte("{}")},
		refs: []ref{{FullText: "P", FullCost: 2}}}
}

func TestFailureAccounting(t *testing.T) {
	answers := []struct {
		status int
		body   string
	}{
		{200, `{"plan_text":"P","cost":2}`},
		{200, `{"plan_text":"Q","cost":9,"degraded":true}`},
		{429, `{}`},
		{503, `{}`},
		{500, `{}`},
	}
	i := 0
	e := fakeEnv(t, func(w http.ResponseWriter, r *http.Request) {
		a := answers[i%len(answers)]
		i++
		w.WriteHeader(a.status)
		_, _ = w.Write([]byte(a.body))
	})
	ops := make([]op, len(answers))
	ss, err := closedLoop(context.Background(), fromSlice(ops), 1, time.Minute, e.send)
	if err != nil {
		t.Fatal(err)
	}
	wantOut := []outcome{outOK, outDegraded, outShed, outShed, outStatus}
	for k, s := range ss {
		if s.Out != wantOut[k] {
			t.Errorf("answer %d classified %s, want %s", k, s.Out, wantOut[k])
		}
	}
	var sum summary
	m, failed := endToEnd(e.wl, ss, e.refs, &sum)
	if failed != 4 {
		t.Errorf("%d of 5 answers counted as failed, want 4", failed)
	}
	if !math.IsInf(sum.Tail.Value, 1) || !math.IsInf(m["p50_ms"].Value, 1) {
		t.Errorf("failures must miss every latency limit; p50 = %v, tail = %v", m["p50_ms"].Value, sum.Tail.Value)
	}
}

func TestWrongPlanAborts(t *testing.T) {
	e := fakeEnv(t, func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"plan_text":"Q","cost":2}`))
	})
	ops := make([]op, 50)
	_, err := openLoop(context.Background(), ops, 2, e.send)
	if err == nil || !strings.Contains(err.Error(), "wrong plan") {
		t.Fatalf("a wrong plan must abort the run, got %v", err)
	}
	// Under tier=auto the greedy reference is a right answer too.
	e.wl.Tier = "auto"
	e.refs[0].GreedyText, e.refs[0].GreedyCost, e.refs[0].GreedyOK = "Q", 2, true
	if _, err := openLoop(context.Background(), ops[:3], 1, e.send); err != nil {
		t.Fatalf("greedy answer under tier=auto rejected: %v", err)
	}
}

// TestClosedLoopKeepsSequence: however two senders interleave, the
// samples are a gap-free prefix of the source's sequence, which the
// traced run replays.
func TestClosedLoopKeepsSequence(t *testing.T) {
	wl := &workload{Pool: make([]query, 7), RoundInvalidate: true}
	send := func(ctx context.Context, o op) (result, error) { return result{Out: outOK}, nil }
	ss, err := closedLoop(context.Background(), roundSource(wl, 5), 2, 20*time.Millisecond, send)
	if err != nil {
		t.Fatal(err)
	}
	want := take(roundSource(wl, 5), len(ss))
	for i, s := range ss {
		if s.Op != i || s.Q != want[i].Q || s.Kind != want[i].Kind {
			t.Fatalf("sample %d is op %d (%v q%d), want op %d (%v q%d)", i, s.Op, s.Kind, s.Q, i, want[i].Kind, want[i].Q)
		}
	}
	if len(ss) < 2*len(wl.Pool) || want[0].Kind != opInvalidate || want[len(wl.Pool)+1].Kind != opInvalidate {
		t.Fatalf("expected rounds of one invalidation and %d queries, got %d ops", len(wl.Pool), len(ss))
	}
}
