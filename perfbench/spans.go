package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one request share Req; Parent
// is the enclosing span's ID, -1 for a request's root. Background spans
// (a refinement the request started) run after their request returned
// and are kept out of its self-time accounting.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Req        int    `json:"req"`
	Name       string `json:"name"`
	World      string `json:"world,omitempty"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	Background bool   `json:"background,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory until the run ends. Requests are
// replayed on one goroutine; only background spans arrive from others,
// hence the mutex.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name, world string, parent, req int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, World: world, StartNS: now, EndNS: now})
	return id
}

// end closes a span.
func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNS = now
	r.mu.Unlock()
}

// rename relabels a span once its outcome is known (a cache hit or a
// search, say).
func (r *recorder) rename(id int, name string) {
	r.mu.Lock()
	r.spans[id].Name = name
	r.mu.Unlock()
}

// background records a span that ended now after running for d outside
// the request that caused it.
func (r *recorder) background(name, world string, parent, req int, d time.Duration) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Req: req, Name: name, World: world,
		StartNS: now - d.Nanoseconds(), EndNS: now, Background: true})
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its (non-background) children cover. Children
// may nest or overlap one another; overlapping stretches count once,
// and a child reaching outside its parent counts only inside it.
func selfTimes(spans []span) []time.Duration {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 && !s.Background {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered := int64(0)
		curS, curE := int64(0), int64(-1)
		for _, iv := range ivs {
			lo, hi := max(iv[0], s.StartNS), min(iv[1], s.EndNS)
			if hi <= lo {
				continue
			}
			if lo > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		out[i] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}
