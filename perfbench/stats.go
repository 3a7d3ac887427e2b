package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to say anything about the tail rather than about one outlier.
const minBeyond = 10

// tailLadder lists the percentiles the tail helper falls back through
// when a sample is too small for the one a workload asks for.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// pct is one reported percentile together with the sample it came from.
type pct struct {
	Q      float64 `json:"q"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
	// Windows is how many windows a windowTail value is the median of
	// (0 for a plain percentile).
	Windows int `json:"windows,omitempty"`
}

// rankOf returns the 0-based nearest-rank index of quantile q in a
// sample of n values.
func rankOf(q float64, n int) int {
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// beyond counts the samples strictly above the q-quantile's rank.
func beyond(q float64, n int) int { return n - 1 - rankOf(q, n) }

// quantile returns the nearest-rank q-quantile of an ascending sample.
// Failed requests enter samples as +Inf, so they count against every
// percentile they fall beyond.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(q, len(sorted))]
}

// tail reports the highest percentile, no higher than want, that has at
// least minBeyond samples beyond it. A sample too small for every
// percentile on the ladder reports the median with its true count.
func tail(sorted []float64, want float64) pct {
	n := len(sorted)
	q := 0.5
	if beyond(want, n) >= minBeyond {
		q = want
	} else {
		for _, l := range tailLadder {
			if l < want && beyond(l, n) >= minBeyond {
				q = l
				break
			}
		}
	}
	return pct{Q: q, Value: quantile(sorted, q), N: n, Beyond: beyond(q, n)}
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// geomean is the geometric mean of positive values; NaN when empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// windowTail is the tail statistic every workload reports: the sample,
// in sequence order, is cut into consecutive windows just large enough
// for the wanted percentile to have minBeyond samples beyond it, and the
// median of the windows' percentiles is reported. A stall of the host
// then moves one window's value rather than the whole run's, which keeps
// the figure steady from run to run. With fewer than three windows the
// whole sample's tail is reported instead.
func windowTail(seq []float64, want float64) pct {
	size := int(math.Ceil(float64(minBeyond)/(1-want))) + 1
	for size > 1 && beyond(want, size-1) >= minBeyond {
		size--
	}
	k := len(seq) / size
	if k < 3 {
		return tail(sorted(seq), want)
	}
	vals := make([]float64, k)
	for i := range vals {
		vals[i] = quantile(sorted(seq[i*size:(i+1)*size]), want)
	}
	return pct{Q: want, Value: median(vals), N: len(seq), Beyond: k * beyond(want, size), Windows: k}
}
