package server

import (
	"prairie/internal/volcano"
	"prairie/internal/wire"
)

// The access-plan JSON codec lives in internal/wire so the cluster peer
// protocol can share it without importing the server. The server keeps
// only what its callers need: PlanNode, the type of a response's plan,
// and EncodePlan, which the repository benchmark (perfbench/) calls.
// Decoding and the descriptor value types are wire's.

// PlanNode is one node of a serialized access plan (see wire.PlanNode).
type PlanNode = wire.PlanNode

// EncodePlan serializes an access plan.
func EncodePlan(p *volcano.PExpr) (*PlanNode, error) { return wire.EncodePlan(p) }
