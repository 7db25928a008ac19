package plan

import (
	"bfcbo/internal/query"
)

// Query fingerprints: a 64-bit identity for the *shape* of a planned
// query, parameterized on literals. Two runs of the same query block with
// different constant bindings (a different shipdate cutoff, another
// discount band) hash to the same fingerprint; structurally different
// queries — another relation set, join graph, predicate form, plan tree,
// or optimizer mode — hash apart. This is exactly the key the ROADMAP's
// plan cache needs ("normalized query block + optimizer mode,
// parameterized on literal bindings"), and the workload history store
// (internal/obs) keys its per-shape aggregates on it today.
//
// The hash is FNV-1a folded byte-by-byte so computing a fingerprint
// allocates nothing. It runs once per query at plan time — never on a
// per-row or per-batch path.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fpHash is an incremental FNV-1a mixer.
type fpHash uint64

func (h *fpHash) byte(b byte) {
	*h = (*h ^ fpHash(b)) * fnvPrime
}

func (h *fpHash) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0) // delimit, so "ab"+"c" != "a"+"bc"
}

func (h *fpHash) int(v int) {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h.byte(byte(u >> (8 * i)))
	}
}

// predShape folds a predicate's literal-free shape: the column(s) and
// operator survive, every constant becomes an anonymous "?". IN-list and
// contains-set lengths are kept — a 2-element and a 40-element IN list
// are different shapes to a cost model. An unknown predicate type falls
// back to its String() form (better a too-precise key than a collision).
func predShape(h *fpHash, p query.Predicate) {
	switch t := p.(type) {
	case query.CmpInt:
		h.str("ci")
		h.str(t.Col)
		h.int(int(t.Op))
	case query.CmpFloat:
		h.str("cf")
		h.str(t.Col)
		h.int(int(t.Op))
	case query.CmpCols:
		// Column-to-column compares carry no literal: both endpoints are
		// part of the shape.
		h.str("cc")
		h.str(t.Col1)
		h.int(int(t.Op))
		h.str(t.Col2)
	case query.BetweenInt:
		h.str("bi")
		h.str(t.Col)
	case query.BetweenFloat:
		h.str("bf")
		h.str(t.Col)
	case query.InInt:
		h.str("ii")
		h.str(t.Col)
		h.int(len(t.Vals))
	case query.StrEq:
		h.str("se")
		h.str(t.Col)
	case query.StrNE:
		h.str("sn")
		h.str(t.Col)
	case query.StrIn:
		h.str("si")
		h.str(t.Col)
		h.int(len(t.Vals))
	case query.StrPrefix:
		h.str("sp")
		h.str(t.Col)
	case query.StrContains:
		h.str("sc")
		h.str(t.Col)
		h.int(len(t.Subs))
	case query.Not:
		h.str("!")
		predShape(h, t.P)
	case query.And:
		h.str("&")
		h.int(len(t.Ps))
		for _, c := range t.Ps {
			predShape(h, c)
		}
	case query.Or:
		h.str("|")
		h.int(len(t.Ps))
		for _, c := range t.Ps {
			predShape(h, c)
		}
	default:
		h.str("p")
		h.str(p.String())
	}
}

// blockShape folds the normalized query-block shape: relation tables in
// index order (aliases are positional, so the index is the identity),
// join-clause endpoints and types, and literal-parameterized local
// predicates. The block's display name is deliberately excluded — two
// differently labeled submissions of the same shape must collide.
func blockShape(h *fpHash, b *query.Block) {
	h.str("blk")
	h.int(len(b.Relations))
	for _, r := range b.Relations {
		h.str(r.Table.Name)
		if r.Pred != nil {
			predShape(h, r.Pred)
		} else {
			h.byte(0)
		}
	}
	h.int(len(b.Clauses))
	for _, c := range b.Clauses {
		h.int(int(c.Type))
		h.int(c.LeftRel)
		h.str(c.LeftCol)
		h.int(c.RightRel)
		h.str(c.RightCol)
		if c.Derived {
			h.byte(1)
		}
	}
}

// nodeShape folds a plan subtree: operator kinds, join types, orientations
// and condition endpoints, scan relations, and how many Bloom filters attach
// at each point. Cardinality and cost estimates are excluded — they vary
// with stats, not with shape.
func nodeShape(h *fpHash, n Node) {
	switch t := n.(type) {
	case *Scan:
		h.str("s")
		h.int(t.Rel)
		h.int(len(t.ApplyBlooms))
	case *Join:
		h.str("j")
		h.int(int(t.JoinType))
		if t.BuildPreserved {
			h.byte(1)
		}
		h.int(len(t.BuildBlooms))
		h.int(len(t.Conds))
		for _, c := range t.Conds {
			h.int(c.OuterRel)
			h.str(c.OuterCol)
			h.int(c.InnerRel)
			h.str(c.InnerCol)
		}
		nodeShape(h, t.Outer)
		nodeShape(h, t.Inner)
	default:
		h.str("?")
	}
}

// Fingerprint returns the query's workload identity: the normalized
// block shape, the optimizer mode that produced the plan, and the plan's
// tree shape, all parameterized on literals. Computed once per run at
// plan time; allocation-free.
func Fingerprint(b *query.Block, p *Plan) uint64 {
	h := fpHash(fnvOffset)
	blockShape(&h, b)
	h.str("mode")
	h.str(p.Mode)
	h.str("plan")
	nodeShape(&h, p.Root)
	fp := uint64(h)
	if fp == 0 {
		fp = 1 // 0 means "no fingerprint" to consumers
	}
	return fp
}

// FingerprintHex formats a fingerprint the way the HTTP endpoints and
// pprof labels spell it: 16 lowercase hex digits.
func FingerprintHex(fp uint64) string {
	const digits = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = digits[fp&0xf]
		fp >>= 4
	}
	return string(buf[:])
}
