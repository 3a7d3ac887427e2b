package volcano

import (
	"sync/atomic"

	"prairie/internal/core"
	"prairie/internal/plancache"
)

// A Query is one optimization problem — a logical tree and a physical
// requirement — together with what the plan cache derives from the
// tree: the canonical fingerprint of the whole tree, the fingerprints
// of its proper interior subtrees (the warm-start seeds), and the
// router's shape class. Prepare computes all of it once, so a service
// that answers the same query many times walks the tree once rather
// than on every request. A prepared Query is immutable and safe for
// concurrent use.
//
// The tree is a template: every search gets its own clone, because the
// memo keeps the descriptors of the trees it interns by pointer.
type Query struct {
	rs   *RuleSet
	tree *core.Expr
	req  *core.Descriptor
	// owned marks the single-run query OptimizeContext wraps around its
	// caller's tree: that run owns the tree, so the search uses it
	// directly, and the fingerprints are computed only if a cache path
	// asks for them.
	owned bool

	printed bool
	// fp and canon are the tree fingerprint extended with the
	// requirement: the cache key short of its budget class.
	fp    uint64
	canon string
	// subs are the fingerprints of the proper interior subtrees, in the
	// pre-order installSeeds walks the tree in.
	subs    []subtreePrint
	class   uint64
	classed bool
	// keys memoizes finished cache keys per budget class (copy on
	// write, at most maxQueryKeys of them).
	keys atomic.Pointer[[]budgetedKey]
}

// subtreePrint is the canonical fingerprint of one subtree.
type subtreePrint struct {
	fp    uint64
	canon string
}

// budgetedKey is a cache key finished for one budget class.
type budgetedKey struct {
	budget   Budget
	explorer ExplorerKind
	fp       uint64
	canon    string
}

// maxQueryKeys bounds the per-query key memo: a service has a handful
// of budget classes, and a caller with more simply builds the rest.
const maxQueryKeys = 8

// Prepare readies tree and req (nil: no requirement) for repeated
// optimization under rs. The caller hands over the tree: it must not
// change it afterwards.
func (rs *RuleSet) Prepare(tree *core.Expr, req *core.Descriptor) *Query {
	q := &Query{rs: rs, tree: tree, req: req}
	q.norm()
	q.print()
	q.shape()
	return q
}

// norm fills in the empty requirement.
func (q *Query) norm() {
	if q.req == nil {
		q.req = core.NewDescriptor(q.rs.Algebra.Props)
	}
}

// print computes the fingerprints once.
func (q *Query) print() {
	if q.printed {
		return
	}
	q.printed = true
	fp, canon, subs := q.rs.fingerprintAll(q.tree)
	phys := q.rs.Class.Phys
	q.fp = core.HashCombine(fp, q.req.HashOn(phys))
	q.canon = canon + "|req:" + reqCanon(q.req, phys)
	q.subs = subs
}

// shape returns the router's shape class of the tree.
func (q *Query) shape() uint64 {
	if !q.classed {
		q.classed = true
		q.class = q.rs.shapeClass(q.tree)
	}
	return q.class
}

// searchTree returns a tree a search may intern: the caller's own tree
// for an owned query, a fresh clone of the template otherwise.
func (q *Query) searchTree() *core.Expr {
	if q.owned {
		return q.tree
	}
	return q.tree.Clone()
}

// searchReq is searchTree for the requirement.
func (q *Query) searchReq() *core.Descriptor {
	if q.owned {
		return q.req
	}
	return q.req.Clone()
}

// key returns the cache key of the query under opts' budget class in
// the given cache epoch.
func (q *Query) key(opts Options, epoch uint64) plancache.Key {
	q.print()
	k := plancache.Key{Scope: q.rs.cacheScope(), Epoch: epoch}
	memo := q.keys.Load()
	if memo != nil {
		for _, bk := range *memo {
			if bk.budget == opts.Budget && bk.explorer == opts.Explorer {
				k.Fingerprint, k.Canon = bk.fp, bk.canon
				return k
			}
		}
	}
	bstr := budgetClass(opts)
	k.Fingerprint = core.HashCombine(q.fp, hashLeafName(bstr))
	k.Canon = q.canon + "|b:" + bstr
	if q.owned || (memo != nil && len(*memo) >= maxQueryKeys) {
		return k
	}
	var next []budgetedKey
	if memo != nil {
		next = append(next, *memo...)
	}
	next = append(next, budgetedKey{opts.Budget, opts.Explorer, k.Fingerprint, k.Canon})
	// A lost race only means another request memoized first; the key
	// built here is equal either way.
	q.keys.CompareAndSwap(memo, &next)
	return k
}

// A RenderSlot holds a plan-cache entry's rendering for the serving
// layer: what the first hit on the entry (or the first peer payload
// made from it) stored there, every later one reads back. The engine
// never looks inside. The slot lives and dies with its entry, so a refinement, an
// invalidation or an eviction that replaces the plan replaces the
// rendering with it. A nil *RenderSlot loads nothing and drops stores.
type RenderSlot struct{ v atomic.Value }

// Load returns the stored rendering, nil when none is.
func (s *RenderSlot) Load() any {
	if s == nil {
		return nil
	}
	return s.v.Load()
}

// Store replaces the rendering; every store must hold the same type.
func (s *RenderSlot) Store(r any) {
	if s != nil {
		s.v.Store(r)
	}
}
