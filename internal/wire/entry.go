package wire

import (
	"encoding/json"
	"fmt"
	"strconv"

	"prairie/internal/core"
	"prairie/internal/volcano"
)

// CacheEntry is the peer-protocol payload: one plan-cache entry — the
// winner plan plus the cold-run shape statistics a hit reports — in a
// form any node can decode against its own copy of the world's algebra.
// Only full-tier entries travel, so no tier field is needed.
type CacheEntry struct {
	Plan      *PlanNode `json:"plan"`
	Cost      float64   `json:"cost"`
	Groups    int       `json:"groups,omitempty"`
	Exprs     int       `json:"exprs,omitempty"`
	Merges    int       `json:"merges,omitempty"`
	MemoBytes int64     `json:"memo_bytes,omitempty"`
}

// EncodeEntry serializes a cache entry for the peer protocol, writing
// exactly what encoding/json writes for the CacheEntry. The plan comes
// from the entry's rendering, which the first encode fills in.
func EncodeEntry(e volcano.RemoteEntry) ([]byte, error) {
	if e.Plan == nil {
		return nil, fmt.Errorf("wire: cache entry without a plan")
	}
	r, err := Render(e.Render, e.Plan, e.Cost, true)
	if err != nil {
		return nil, err
	}
	b := append(append([]byte(`{"plan":`), r.Plan...), `,"cost":`...)
	if b, err = AppendFloat(b, e.Cost); err != nil {
		return nil, err
	}
	if e.Groups != 0 {
		b = strconv.AppendInt(AppendKey(b, "groups"), int64(e.Groups), 10)
	}
	if e.Exprs != 0 {
		b = strconv.AppendInt(AppendKey(b, "exprs"), int64(e.Exprs), 10)
	}
	if e.Merges != 0 {
		b = strconv.AppendInt(AppendKey(b, "merges"), int64(e.Merges), 10)
	}
	if e.MemoBytes != 0 {
		b = strconv.AppendInt(AppendKey(b, "memo_bytes"), e.MemoBytes, 10)
	}
	return append(b, '}'), nil
}

// DecodeEntry rebuilds a cache entry from a peer payload using the
// receiving node's algebra. The decoded plan is a fresh tree with its
// own descriptors — safe to cache and clone like a locally-built one.
func DecodeEntry(alg *core.Algebra, b []byte) (volcano.RemoteEntry, error) {
	var ce CacheEntry
	if err := json.Unmarshal(b, &ce); err != nil {
		return volcano.RemoteEntry{}, fmt.Errorf("wire: cache entry: %w", err)
	}
	if ce.Plan == nil {
		return volcano.RemoteEntry{}, fmt.Errorf("wire: cache entry without a plan")
	}
	tree, err := DecodePlan(alg, ce.Plan)
	if err != nil {
		return volcano.RemoteEntry{}, err
	}
	return volcano.RemoteEntry{
		Plan:      volcano.PlanFromExpr(tree),
		Cost:      ce.Cost,
		Groups:    ce.Groups,
		Exprs:     ce.Exprs,
		Merges:    ce.Merges,
		MemoBytes: ce.MemoBytes,
	}, nil
}
