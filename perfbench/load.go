package main

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"syscall"
	"time"
)

// opKind says what one step of a request sequence does.
type opKind uint8

const (
	opOptimize   opKind = iota // POST /v1/optimize for one pool query
	opInvalidate               // POST /v1/invalidate; never timed
)

// op is one step of a workload's request sequence. Due is the offset
// from the start of the phase at which an open loop must send it.
type op struct {
	Kind opKind
	Q    int
	Due  time.Duration
}

// outcome classifies one answered request. Everything but outOK counts
// as a failure and as a miss of any latency limit.
type outcome uint8

const (
	outOK        outcome = iota
	outShed              // 429 or 503 from admission control
	outStatus            // any other non-200 status
	outTransport         // connection or protocol error
	outTimeout           // the client gave up waiting
	outDegraded          // a 200 whose plan came from a budget-degraded search
)

var outcomeNames = [...]string{"ok", "shed", "status", "transport", "timeout", "degraded"}

func (o outcome) String() string { return outcomeNames[o] }

// sample is one executed op. Times are offsets from the phase start; a
// closed loop has Due == Start.
type sample struct {
	Op              int
	Q               int
	Kind            opKind
	Due, Start, End time.Duration
	Out             outcome
	PlanCost        float64
}

// latency is the time from when the request was due to when its answer
// was in; a failed request reads +Inf.
func (s sample) latency() float64 {
	if s.Out != outOK {
		return inf
	}
	return float64(s.End-s.Due) / float64(time.Millisecond)
}

// late is how far behind its schedule the generator sent the request.
func (s sample) late() float64 { return float64(s.Start-s.Due) / float64(time.Millisecond) }

// sendFunc executes one op and classifies the answer. A non-nil error
// means the answer was wrong, which aborts the run.
type sendFunc func(ctx context.Context, o op) (result, error)

// result is what a sender learned from one answer.
type result struct {
	Out      outcome
	PlanCost float64
}

// poisson returns n arrival offsets of a Poisson process at rate per
// second, drawn from rng.
func poisson(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// opSource yields the i-th op of a sequence, false past its end. The
// drivers call it in index order under a lock, so a stateful generator
// yields the same sequence however the senders are scheduled.
type opSource func(i int) (op, bool)

func fromSlice(ops []op) opSource {
	return func(i int) (op, bool) {
		if i >= len(ops) {
			return op{}, false
		}
		return ops[i], true
	}
}

// take returns the first n ops of a fresh source.
func take(src opSource, n int) []op {
	out := make([]op, 0, n)
	for i := 0; i < n; i++ {
		o, ok := src(i)
		if !ok {
			break
		}
		out = append(out, o)
	}
	return out
}

// openLoop sends every op at its due time from `senders` goroutines
// that take ops in sequence order. A sender that is still busy when the
// next op falls due sends it late; the latency is still timed from the
// due time, so a stall is charged to every request queued behind it.
func openLoop(ctx context.Context, ops []op, senders int, send sendFunc) ([]sample, error) {
	ss, _, err := drive(ctx, fromSlice(ops), senders, 0, send, true, true)
	return ss, err
}

// closedLoop runs `clients` goroutines that each send their next op as
// soon as the previous answer is in, until the source runs out or
// `limit` has passed since the start. The samples are a prefix of the
// sequence.
func closedLoop(ctx context.Context, src opSource, clients int, limit time.Duration, send sendFunc) ([]sample, error) {
	ss, _, err := drive(ctx, src, clients, limit, send, false, true)
	return ss, err
}

// countClosed is closedLoop keeping only the numbers of optimize
// requests answered and attempted, so the generator's memory does not
// grow with the service's speed.
func countClosed(ctx context.Context, src opSource, clients int, limit time.Duration, send sendFunc) (tally, error) {
	_, t, err := drive(ctx, src, clients, limit, send, false, false)
	return t, err
}

// tally counts optimize requests.
type tally struct{ answered, attempted int }

// drive runs the sequence on `workers` goroutines and returns its
// samples in sequence order (when keep is set) and the optimize-request
// tally.
func drive(ctx context.Context, src opSource, workers int, limit time.Duration, send sendFunc, open, keep bool) ([]sample, tally, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex
	next, exhausted := 0, false
	claim := func() (int, op, bool) {
		mu.Lock()
		defer mu.Unlock()
		if exhausted {
			return 0, op{}, false
		}
		o, ok := src(next)
		if !ok {
			exhausted = true
			return 0, op{}, false
		}
		next++
		return next - 1, o, true
	}
	var errOnce sync.Once
	var firstErr error
	per := make([][]sample, workers)
	counts := make([]tally, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				if !open && limit > 0 && time.Since(start) >= limit {
					return
				}
				i, o, ok := claim()
				if !ok {
					return
				}
				if open && !sleepUntil(ctx, start.Add(o.Due)) {
					return
				}
				began := time.Since(start)
				res, err := send(ctx, o)
				ended := time.Since(start)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					cancel()
					return
				}
				if o.Kind == opOptimize {
					counts[w].attempted++
					if res.Out == outOK {
						counts[w].answered++
					}
				}
				if !keep {
					continue
				}
				due := o.Due
				if !open {
					due = began
				}
				per[w] = append(per[w], sample{Op: i, Q: o.Q, Kind: o.Kind, Due: due, Start: began, End: ended,
					Out: res.Out, PlanCost: res.PlanCost})
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, tally{}, firstErr
	}
	var out []sample
	var t tally
	for w := range per {
		out = append(out, per[w]...)
		t.answered += counts[w].answered
		t.attempted += counts[w].attempted
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Op < out[b].Op })
	return out, t, nil
}

// maxNap bounds one sleep so a cancelled run stops promptly.
const maxNap = 20 * time.Millisecond

// sleepUntil blocks until t or until ctx is done (false). It sleeps in
// the nanosleep system call rather than on a runtime timer: runtime
// timers wake about a millisecond late on Linux, which would swamp the
// sub-millisecond latencies of cache hits, while nanosleep wakes within
// about 100µs.
func sleepUntil(ctx context.Context, t time.Time) bool {
	for {
		if ctx.Err() != nil {
			return false
		}
		d := time.Until(t)
		if d <= 0 {
			return true
		}
		ts := syscall.NsecToTimespec(int64(min(d, maxNap)))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the nap; the loop re-checks
	}
}
