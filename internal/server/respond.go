package server

import (
	"net/http"
	"strconv"
	"sync"

	"prairie/internal/wire"
)

// This file writes the optimize and batch responses through the wire
// package's JSON appender: the bytes are exactly those encoding/json
// writes for the same values (TestServiceDifferential and FuzzPlanJSON
// hold that), without reflection, and a served plan's text, cost and
// tree come pre-rendered from its plan-cache entry.

// jsonAppender is a response written through the appender.
type jsonAppender interface {
	appendJSON(b []byte) ([]byte, error)
}

// bodyPool recycles response buffers; buffers that grew past
// maxPooledBody (a very wide plan) are left to the collector.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledBody = 64 << 10

// writeResponse answers with v, encoded before the status goes out: a
// response that cannot be encoded becomes a 500 with an error body.
func writeResponse(w http.ResponseWriter, code int, v jsonAppender) {
	bp := bodyPool.Get().(*[]byte)
	b, err := v.appendJSON((*bp)[:0])
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "encode response: " + err.Error()})
	} else {
		writeBody(w, code, append(b, '\n'))
	}
	if cap(b) <= maxPooledBody {
		*bp = b[:0]
		bodyPool.Put(bp)
	}
}

// MarshalJSON writes the response through the service's JSON appender.
func (r OptimizeResponse) MarshalJSON() ([]byte, error) { return r.appendJSON(nil) }

func (r *OptimizeResponse) appendJSON(b []byte) ([]byte, error) {
	b, err := r.appendFields(append(b, '{'))
	if err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// appendFields appends the response's members without the enclosing
// braces, so a batch item can add its own after them.
func (r *OptimizeResponse) appendFields(b []byte) ([]byte, error) {
	var err error
	b = wire.AppendString(wire.AppendKey(b, "ruleset"), r.Ruleset)
	b = wire.AppendString(append(wire.AppendKey(b, "query"), `{"family":`...), r.Query.Family)
	b = strconv.AppendInt(wire.AppendKey(b, "n"), int64(r.Query.N), 10)
	if r.Query.Graph != "" {
		b = wire.AppendString(wire.AppendKey(b, "graph"), r.Query.Graph)
	}
	b = append(b, '}')
	cost, text, plan := r.Cost, []byte(nil), []byte(nil)
	if rd := r.rendered; rd != nil {
		cost, text = rd.Cost, rd.Text
		if r.withPlan {
			plan = rd.Plan
		}
	}
	b = wire.AppendKey(b, "plan_text")
	if text != nil {
		b = append(b, text...)
	} else {
		b = wire.AppendString(b, r.PlanText)
	}
	switch {
	case plan != nil:
		b = append(wire.AppendKey(b, "plan"), plan...)
	case r.Plan != nil:
		if b, err = wire.AppendPlan(wire.AppendKey(b, "plan"), r.Plan); err != nil {
			return b, err
		}
	}
	if b, err = wire.AppendFloat(wire.AppendKey(b, "cost"), cost); err != nil {
		return b, err
	}
	if r.Degraded {
		b = append(wire.AppendKey(b, "degraded"), "true"...)
	}
	if r.DegradeCause != "" {
		b = wire.AppendString(wire.AppendKey(b, "degrade_cause"), r.DegradeCause)
	}
	if r.DegradePath != "" {
		b = wire.AppendString(wire.AppendKey(b, "degrade_path"), r.DegradePath)
	}
	b = wire.AppendBool(wire.AppendKey(b, "cache_hit"), r.CacheHit)
	if r.CacheOutcome != "" {
		b = wire.AppendString(wire.AppendKey(b, "cache_outcome"), r.CacheOutcome)
	}
	b = wire.AppendString(wire.AppendKey(b, "planner_tier"), r.PlannerTier)
	if r.Refined {
		b = append(wire.AppendKey(b, "refined"), "true"...)
	}
	if r.GreedyCost != 0 {
		if b, err = wire.AppendFloat(wire.AppendKey(b, "greedy_cost"), r.GreedyCost); err != nil {
			return b, err
		}
	}
	if r.FullCost != 0 {
		if b, err = wire.AppendFloat(wire.AppendKey(b, "full_cost"), r.FullCost); err != nil {
			return b, err
		}
	}
	b = strconv.AppendInt(wire.AppendKey(b, "elapsed_us"), r.ElapsedUS, 10)
	st := &r.Stats
	b = strconv.AppendInt(append(wire.AppendKey(b, "stats"), `{"groups":`...), int64(st.Groups), 10)
	b = strconv.AppendInt(append(b, `,"exprs":`...), int64(st.Exprs), 10)
	b = strconv.AppendInt(append(b, `,"trans_fired":`...), int64(st.TransFired), 10)
	b = strconv.AppendInt(append(b, `,"impl_fired":`...), int64(st.ImplFired), 10)
	b = strconv.AppendInt(append(b, `,"costed_plans":`...), int64(st.CostedPlan), 10)
	b = append(b, '}')
	if ex := r.Exec; ex != nil {
		b = strconv.AppendInt(append(wire.AppendKey(b, "exec"), `{"rows":`...), int64(ex.Rows), 10)
		b = strconv.AppendInt(append(b, `,"workers":`...), int64(ex.Workers), 10)
		b = strconv.AppendInt(append(b, `,"elapsed_us":`...), ex.ElapsedUS, 10)
		b = append(b, '}')
	}
	if r.RequestID != "" {
		b = wire.AppendString(wire.AppendKey(b, "request_id"), r.RequestID)
	}
	return b, nil
}

// MarshalJSON writes the batch item through the service's JSON
// appender: the embedded response's members (when present), then the
// error.
func (it BatchItemResponse) MarshalJSON() ([]byte, error) { return it.appendJSON(nil) }

func (it *BatchItemResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, '{')
	if it.OptimizeResponse != nil {
		var err error
		if b, err = it.OptimizeResponse.appendFields(b); err != nil {
			return b, err
		}
	}
	if it.Error != "" {
		b = wire.AppendString(wire.AppendKey(b, "error"), it.Error)
	}
	return append(b, '}'), nil
}

func (r *BatchResponse) appendJSON(b []byte) ([]byte, error) {
	b = wire.AppendKey(append(b, '{'), "results")
	if r.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = r.Results[i].appendJSON(b); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(wire.AppendKey(b, "wall_us"), r.WallUS, 10)
	b = strconv.AppendInt(wire.AppendKey(b, "workers"), int64(r.Workers), 10)
	b = strconv.AppendInt(wire.AppendKey(b, "errors"), int64(r.Errors), 10)
	b = strconv.AppendInt(wire.AppendKey(b, "degraded"), int64(r.Degraded), 10)
	return append(b, '}'), nil
}
