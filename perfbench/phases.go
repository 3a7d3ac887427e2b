package main

import (
	"math"
	"math/rand"

	"prairie/internal/qgen"
)

var inf = math.Inf(1)

// streamOps draws n Zipf requests over the pool with Poisson arrivals at
// rate, inserting an invalidation every wl.InvalidateEvery requests.
func streamOps(wl *workload, seed int64, rate float64, n int) []op {
	draws := qgen.ZipfDraws(len(wl.Pool), n, wl.ZipfS, seed)
	due := poisson(rand.New(rand.NewSource(seed^0x5eed)), rate, n)
	ops := make([]op, 0, n+n/max(wl.InvalidateEvery, 1))
	for i, q := range draws {
		if wl.InvalidateEvery > 0 && i > 0 && i%wl.InvalidateEvery == 0 {
			ops = append(ops, op{Kind: opInvalidate, Due: due[i]})
		}
		ops = append(ops, op{Kind: opOptimize, Q: q, Due: due[i]})
	}
	return ops
}

// roundSource sends the whole pool once per round in a seeded order,
// invalidating before each round when the workload asks for it.
func roundSource(wl *workload, seed int64) opSource {
	rng := rand.New(rand.NewSource(seed))
	var round []op
	pos := 0
	return func(int) (op, bool) {
		if pos == len(round) {
			round, pos = round[:0], 0
			if wl.RoundInvalidate {
				round = append(round, op{Kind: opInvalidate})
			}
			for _, q := range rng.Perm(len(wl.Pool)) {
				round = append(round, op{Kind: opOptimize, Q: q})
			}
		}
		pos++
		return round[pos-1], true
	}
}

// zipfSource draws an endless Zipf stream over the pool, without
// arrival times.
func zipfSource(wl *workload, seed int64) opSource {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), wl.ZipfS, 1, uint64(len(wl.Pool)-1))
	return func(int) (op, bool) { return op{Kind: opOptimize, Q: int(z.Uint64())}, true }
}

// optimizeOnly drops invalidation samples, which are never timed.
func optimizeOnly(ss []sample) []sample {
	out := ss[:0:0]
	for _, s := range ss {
		if s.Kind == opOptimize {
			out = append(out, s)
		}
	}
	return out
}
