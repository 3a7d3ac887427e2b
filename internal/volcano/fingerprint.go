package volcano

import (
	"sort"
	"strings"

	"prairie/internal/core"
)

// This file computes the canonical fingerprint of a logical expression
// tree — the identity under which the cross-query plan cache stores
// winners. Two trees fingerprint equally exactly when the memo would
// treat them as the same search problem:
//
//   - leaves digest the stored-file name plus the argument-class
//     projection of their catalog descriptor;
//   - interior nodes digest the operator and the same argument-property
//     projection the memo's duplicate detection uses (RuleSet.idProps),
//     so properties that don't identify an expression (physical, cost)
//     don't fragment the cache;
//   - the inputs of an operator with an unconditional commute rule are
//     sorted into a canonical order, so A JOIN B and B JOIN A collide —
//     sound because the rule proves both orders share one equivalence
//     class, hence the same closure and winners.
//
// Alongside the 64-bit hash, fingerprintNode renders the exact canonical
// string it digests. The cache keys on both: the string makes hash
// collisions harmless (see plancache.Key).

// fingerprintNode returns the structural hash and the canonical
// rendering of the logical tree rooted at e.
func (rs *RuleSet) fingerprintNode(e *core.Expr) (uint64, string) {
	var b strings.Builder
	h := rs.fingerprintWalk(e, &b, nil)
	return h, b.String()
}

// fingerprintAll is fingerprintNode that also returns the fingerprint
// of every proper interior subtree, in pre-order. The walk renders each
// subtree's canonical string on its way to the root's anyway, so the
// warm-start seeds cost no second walk.
func (rs *RuleSet) fingerprintAll(e *core.Expr) (uint64, string, []subtreePrint) {
	var b strings.Builder
	var subs []subtreePrint
	h := rs.fingerprintWalk(e, &b, &subs)
	return h, b.String(), subs
}

// Fingerprint exposes the canonical fingerprint for callers outside the
// cache path — property tests assert its invariants (commutative-input
// swaps and attribute reorderings must not change it), and services can
// use it as a stable request identity.
func (rs *RuleSet) Fingerprint(e *core.Expr) (uint64, string) {
	return rs.fingerprintNode(e)
}

// Commutative reports whether op's inputs are canonically sorted by the
// fingerprint, i.e. whether the rule set carries an unconditional
// commute rule for op.
func (rs *RuleSet) Commutative(op *core.Operation) bool {
	return rs.commutative(op)
}

// fingerprintWalk writes the canonical rendering of e into b and
// returns its hash. A non-nil subs collects the proper interior
// subtrees' fingerprints: each subtree takes its slot before the walk
// descends into it, so the slots come out in pre-order.
func (rs *RuleSet) fingerprintWalk(e *core.Expr, b *strings.Builder, subs *[]subtreePrint) uint64 {
	if e.IsLeaf() {
		// Same leaf constant as Memo.selfHash, extended with the
		// catalog projection: the memo can key leaves by name alone
		// because one memo sees one catalog, but the cache outlives
		// catalog reloads within a rule set's lifetime.
		h := core.HashCombine(0x1eaf, hashLeafName(e.File))
		b.WriteString(e.File)
		if e.D != nil && len(rs.Class.Arg) > 0 {
			h = core.HashCombine(h, e.D.HashOn(rs.Class.Arg))
			writeProj(b, e.D, rs.Class.Arg)
		}
		return h
	}
	ids := rs.idProps(e.Op)
	h := core.HashCombine(core.HashCombine(0x09, uint64(e.Op.Index())), e.D.HashOn(ids))
	b.WriteString(e.Op.Name)
	writeProj(b, e.D, ids)
	b.WriteByte('(')
	type kidFP struct {
		h uint64
		s string
	}
	kids := make([]kidFP, len(e.Kids))
	for i, k := range e.Kids {
		var kb strings.Builder
		slot := -1
		if subs != nil && !k.IsLeaf() {
			slot = len(*subs)
			*subs = append(*subs, subtreePrint{})
		}
		kids[i] = kidFP{rs.fingerprintWalk(k, &kb, subs), kb.String()}
		if slot >= 0 {
			(*subs)[slot] = subtreePrint{kids[i].h, kids[i].s}
		}
	}
	if len(kids) == 2 && rs.commutative(e.Op) {
		if kids[1].h < kids[0].h || (kids[1].h == kids[0].h && kids[1].s < kids[0].s) {
			kids[0], kids[1] = kids[1], kids[0]
		}
	}
	for i, k := range kids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k.s)
		h = core.HashCombine(h, k.h)
	}
	b.WriteByte(')')
	return h
}

// writeProj renders the projection of d onto ids, reading unset
// properties as their defaults — exactly the equality Descriptor.EqualOn
// applies, so the canonical string distinguishes precisely what the memo
// distinguishes.
func writeProj(b *strings.Builder, d *core.Descriptor, ids []core.PropID) {
	b.WriteByte('{')
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		switch v := d.Get(id).(type) {
		case core.Attrs:
			// Attrs compare as sets (order-insensitive Equal/Hash) but
			// render in list order; sort so EqualOn-equal descriptors
			// canonicalize identically.
			writeSortedAttrs(b, v)
		default:
			b.WriteString(v.String())
		}
	}
	b.WriteByte('}')
}

func writeSortedAttrs(b *strings.Builder, v core.Attrs) {
	sorted := make([]string, len(v))
	for i, a := range v {
		sorted[i] = a.String()
	}
	sort.Strings(sorted)
	b.WriteByte('{')
	b.WriteString(strings.Join(sorted, ","))
	b.WriteByte('}')
}

// reqCanon renders the physical-property requirement for the cache key
// with the same unset-reads-as-default convention as writeProj.
func reqCanon(req *core.Descriptor, phys []core.PropID) string {
	var b strings.Builder
	writeProj(&b, req, phys)
	return b.String()
}
