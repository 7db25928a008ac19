// Package stats implements the cardinality estimator: local-predicate
// selectivity from catalog statistics, join and semi-join cardinality, NDV
// propagation through filters (Yao's formula), and the δ-dependent Bloom
// filter reduction factor that is the heart of the paper's method — the
// estimated cardinality |R ˆ⋉ δ| of a scan with a Bloom filter applied,
// including the filter's false-positive rate (§3.5).
package stats

import (
	"math"
	"slices"

	"bfcbo/internal/catalog"
	"bfcbo/internal/query"
)

// Default selectivities for predicates the statistics cannot resolve,
// following PostgreSQL's conventions (DEFAULT_EQ_SEL etc.).
const (
	defaultEqSel    = 0.005
	defaultIneqSel  = 1.0 / 3.0
	defaultMatchSel = 0.02 // LIKE '%...%'
	defaultPrefSel  = 0.05 // LIKE 'prefix%'
	minSel          = 1e-9 // floor to avoid zero-cardinality degeneracy
)

// clampSel bounds a selectivity into [minSel, 1].
func clampSel(s float64) float64 {
	if math.IsNaN(s) || s < minSel {
		return minSel
	}
	if s > 1 {
		return 1
	}
	return s
}

// PredicateSelectivity estimates the fraction of rows of table t that
// satisfy p, using only catalog statistics (uniformity and independence
// assumptions, as in System R).
func PredicateSelectivity(t *catalog.Table, p query.Predicate) float64 {
	if p == nil {
		return 1
	}
	switch q := p.(type) {
	case query.CmpInt:
		return clampSel(cmpSelectivity(t, q.Col, q.Op, float64(q.Val)))
	case query.CmpFloat:
		return clampSel(cmpSelectivity(t, q.Col, q.Op, q.Val))
	case query.CmpCols:
		switch q.Op {
		case query.EQ:
			return clampSel(defaultEqSel)
		case query.NE:
			return clampSel(1 - defaultEqSel)
		default:
			return clampSel(defaultIneqSel)
		}
	case query.BetweenInt:
		return clampSel(rangeFraction(t, q.Col, float64(q.Lo), float64(q.Hi)))
	case query.BetweenFloat:
		return clampSel(rangeFraction(t, q.Col, q.Lo, q.Hi))
	case query.InInt:
		return clampSel(float64(distinct(q.Vals)) * eqSelectivity(t, q.Col))
	case query.StrEq:
		return clampSel(eqSelectivity(t, q.Col))
	case query.StrNE:
		return clampSel(1 - eqSelectivity(t, q.Col))
	case query.StrIn:
		return clampSel(float64(distinct(q.Vals)) * eqSelectivity(t, q.Col))
	case query.StrPrefix:
		return clampSel(defaultPrefSel)
	case query.StrContains:
		return clampSel(defaultMatchSel)
	case query.Not:
		return clampSel(1 - PredicateSelectivity(t, q.P))
	case query.And:
		s := 1.0
		for _, sub := range q.Ps {
			s *= PredicateSelectivity(t, sub)
		}
		return clampSel(s)
	case query.Or:
		// P(a or b) = 1 - Π(1 - s_i) under independence.
		s := 1.0
		for _, sub := range q.Ps {
			s *= 1 - PredicateSelectivity(t, sub)
		}
		return clampSel(1 - s)
	default:
		return clampSel(defaultEqSel)
	}
}

// distinct counts the distinct constants of an IN list. The parser keeps
// a repeated one, and x IN (5, 5) matches the rows x = 5 does. The lists
// are a handful of constants, so the quadratic walk allocates nothing.
func distinct[T comparable](vals []T) int {
	n := 0
	for i, v := range vals {
		if !slices.Contains(vals[:i], v) {
			n++
		}
	}
	return n
}

// eqSelectivity is 1/NDV for an equality against an arbitrary constant.
func eqSelectivity(t *catalog.Table, col string) float64 {
	c, err := t.Column(col)
	if err != nil || c.Stats.NDV <= 0 {
		return defaultEqSel
	}
	return 1 / c.Stats.NDV
}

func cmpSelectivity(t *catalog.Table, col string, op query.CmpOp, val float64) float64 {
	switch op {
	case query.EQ:
		return eqSelectivity(t, col)
	case query.NE:
		return 1 - eqSelectivity(t, col)
	}
	c, err := t.Column(col)
	if err != nil || c.Stats.Max <= c.Stats.Min {
		return defaultIneqSel
	}
	switch op {
	case query.LT:
		return fractionBelow(c.Stats, val, false)
	case query.LE:
		return fractionBelow(c.Stats, val, true)
	case query.GT:
		return 1 - fractionBelow(c.Stats, val, true)
	case query.GE:
		return 1 - fractionBelow(c.Stats, val, false)
	default:
		return defaultIneqSel
	}
}

// fractionBelow estimates the fraction of rows whose value is below val —
// at or below it when inclusive — for a column with Max > Min. With a known
// NDV the column is modelled as that many equally likely values evenly
// spaced over [Min, Max], so the rows strictly below val are the uniform
// fraction scaled by (ndv−1)/ndv and val itself carries 1/ndv: a 50-value
// column has 2 % of its rows above 49, not the 0.04 % a continuous domain
// minus an equality mass would give. Without an NDV the domain is continuous
// and a single value has no mass.
func fractionBelow(st catalog.ColumnStats, val float64, inclusive bool) float64 {
	switch {
	case val < st.Min || (val == st.Min && !inclusive):
		return 0
	case val > st.Max || (val == st.Max && inclusive):
		return 1
	}
	f := (val - st.Min) / (st.Max - st.Min)
	if st.NDV <= 0 {
		return f
	}
	f *= (st.NDV - 1) / st.NDV
	if inclusive {
		f += 1 / st.NDV
	}
	return f
}

func rangeFraction(t *catalog.Table, col string, lo, hi float64) float64 {
	c, err := t.Column(col)
	if err != nil {
		return defaultIneqSel * defaultIneqSel
	}
	if c.Stats.Max <= c.Stats.Min {
		return defaultIneqSel
	}
	if hi < lo {
		return 0
	}
	return fractionBelow(c.Stats, hi, true) - fractionBelow(c.Stats, lo, false)
}

// NDVAfterFilter applies Yao's formula: given a column with d distinct
// values uniformly spread over n rows, a random subset of n' rows contains
// approximately d·(1 − (1 − n'/n)^(n/d)) distinct values.
func NDVAfterFilter(d, n, nPrime float64) float64 {
	if d <= 0 || n <= 0 {
		return 0
	}
	if nPrime >= n {
		return d
	}
	if nPrime <= 0 {
		return 0
	}
	kept := 1 - math.Pow(1-nPrime/n, n/d)
	out := d * kept
	if out > nPrime {
		out = nPrime // cannot have more distinct values than rows
	}
	if out < 1 {
		out = 1
	}
	return out
}
