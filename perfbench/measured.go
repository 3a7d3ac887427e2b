package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"prairie/internal/server"
)

// summary is the detail behind the end-to-end metrics, written to the
// result file and printed before the result line.
type summary struct {
	Samples      int                `json:"samples"`
	Outcomes     map[string]int     `json:"outcomes"`
	P50          pct                `json:"p50_ms"`
	Tail         pct                `json:"tail_ms"`
	LatDist      map[string]float64 `json:"latency_ms_by_percentile"`
	LateDist     map[string]float64 `json:"late_ms_by_percentile,omitempty"`
	PerQueryMS   map[string]float64 `json:"per_query_median_ms"`
	Pairs        int                `json:"prairie_volcano_pairs"`
	SetupS       []float64          `json:"setup_s"`
	ThroughputOf string             `json:"throughput_rps_is"`
}

// measuredRun is the untraced run: references, timed set-ups, then the
// workload's timed phase with all in-program instrumentation off.
func measuredRun(ctx context.Context, wl *workload, dsl string, oracle map[string]int, seed int64, budget time.Duration) (*final, any, error) {
	refReg, err := server.DefaultRegistry(maxN, worldSeed, dsl)
	if err != nil {
		return nil, nil, err
	}
	refs, _, err := computeRefs(wl, refReg, oracle)
	if err != nil {
		return nil, nil, err
	}
	e, setupDurs, err := timeSetup(wl, dsl, senders(), refs)
	if err != nil {
		return nil, nil, err
	}
	defer e.close()

	var ss []sample
	var sum summary
	var throughput float64
	var sat tally
	if wl.Loop == "open" {
		phase := budget
		if wl.Saturate {
			phase = budget / 2
		}
		ss, err = openLoop(ctx, streamOps(wl, seed, wl.Rate, int(wl.Rate*phase.Seconds())), senders(), e.send)
		e.srv.Router().Wait()
		if err != nil {
			return nil, nil, err
		}
		throughput = goodput(optimizeOnly(ss))
		sum.ThroughputOf = fmt.Sprintf("answered requests per second at the offered %g req/s", wl.Rate)
		if wl.Saturate {
			began := time.Now()
			if sat, err = countClosed(ctx, zipfSource(wl, seed+1), senders(), budget-phase, e.send); err != nil {
				return nil, nil, err
			}
			throughput = float64(sat.answered) / time.Since(began).Seconds()
			e.srv.Router().Wait()
			sum.ThroughputOf = fmt.Sprintf("answered requests per second of %d closed-loop senders, each sending as soon as its answer is in", senders())
		}
	} else {
		began := time.Now()
		if ss, err = closedLoop(ctx, roundSource(wl, seed), wl.Clients, budget, e.send); err != nil {
			return nil, nil, err
		}
		throughput = float64(answered(ss)) / time.Since(began).Seconds()
		sum.ThroughputOf = fmt.Sprintf("answered requests per second of %d closed-loop client(s)", wl.Clients)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	ss = optimizeOnly(ss)
	m, failed := endToEnd(wl, ss, refs, &sum)
	attempted := len(ss) + sat.attempted
	failed += sat.attempted - sat.answered
	m["success_rate"] = metric{float64(attempted-failed) / float64(max(attempted, 1)), "ratio"}
	m["setup_s"] = metric{median(setupDurs), "s"}
	m["throughput_rps"] = metric{throughput, "req/s"}
	m["peak_rss_mb"] = metric{rss, "MB"}
	sum.SetupS = setupDurs
	return &final{Correct: true, Attempted: attempted, Failed: failed, Metrics: m}, sum, nil
}

// endToEnd computes the per-request metrics of one timed phase.
func endToEnd(wl *workload, ss []sample, refs []ref, sum *summary) (map[string]metric, int) {
	var lats, lates, costRatios []float64
	perQ := make([][]float64, len(wl.Pool))
	costs := make([][]float64, len(wl.Pool))
	sum.Outcomes = map[string]int{}
	failed := 0
	for _, s := range ss {
		sum.Outcomes[s.Out.String()]++
		lats = append(lats, s.latency())
		lates = append(lates, s.late())
		perQ[s.Q] = append(perQ[s.Q], s.latency())
		if s.Out != outOK {
			failed++
			continue
		}
		costs[s.Q] = append(costs[s.Q], s.PlanCost)
		costRatios = append(costRatios, s.PlanCost/refs[s.Q].FullCost)
	}
	all := sorted(lats)
	sum.Samples = len(ss)
	sum.P50 = pct{Q: 0.5, Value: quantile(all, 0.5), N: len(all), Beyond: beyond(0.5, len(all))}
	sum.Tail = windowTail(lats, wl.TailQ)
	sum.LatDist = dist(all)
	if wl.Loop == "open" {
		sum.LateDist = dist(sorted(lates))
	}
	sum.PerQueryMS = map[string]float64{}
	var qMed, qCost []float64
	med := make([]float64, len(wl.Pool))
	for i, l := range perQ {
		med[i] = math.NaN()
		if len(l) == 0 {
			continue
		}
		med[i] = median(l)
		qMed = append(qMed, med[i])
		sum.PerQueryMS[wl.Pool[i].String()] = med[i]
		if len(costs[i]) > 0 {
			qCost = append(qCost, geomean(costs[i]))
		}
	}
	var ratios []float64
	for i, q := range wl.Pool {
		if q.World != wPrairie {
			continue
		}
		for j, v := range wl.Pool {
			if v.World == wVolcano && v.Spec == q.Spec && !math.IsNaN(med[i]) && !math.IsNaN(med[j]) {
				ratios = append(ratios, med[i]/med[j])
			}
		}
	}
	sum.Pairs = len(ratios)
	return map[string]metric{
		"p50_ms":                {sum.P50.Value, "ms"},
		"query_geomean_ms":      {geomean(qMed), "ms"},
		"plan_cost_geomean":     {geomean(qCost), "cost"},
		"prairie_volcano_ratio": {geomean(ratios), "ratio"},
		"served_cost_ratio":     {geomean(costRatios), "ratio"},
	}, failed
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// dist renders a sorted sample at the percentiles the tail helper may
// pick, keeping only those with at least minBeyond samples beyond.
func dist(sorted []float64) map[string]float64 {
	out := map[string]float64{}
	for _, q := range append([]float64{0.999, 0.99, 0.95, 0.9}, 0.5) {
		if q == 0.5 || beyond(q, len(sorted)) >= minBeyond {
			out[strconv.FormatFloat(100*q, 'g', -1, 64)] = quantile(sorted, q)
		}
	}
	return out
}

// goodput is the answered requests per second of an open-loop phase,
// from the first due time to the last answer.
func goodput(ss []sample) float64 {
	if len(ss) == 0 {
		return 0
	}
	var last time.Duration
	for _, s := range ss {
		last = max(last, s.End)
	}
	return float64(answered(ss)) / max(last-ss[0].Due, time.Millisecond).Seconds()
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.latency()
	}
	return out
}

// answered counts the optimize samples that were answered.
func answered(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.Kind == opOptimize && s.Out == outOK {
			n++
		}
	}
	return n
}
