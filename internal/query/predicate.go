package query

import (
	"fmt"
	"strings"

	"bfcbo/internal/storage"
)

// CmpOp is a comparison operator for scalar predicates.
type CmpOp int

const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Predicate is an executable single-relation filter. Implementations carry
// enough structure for the estimator (internal/stats) to derive a
// selectivity from catalog statistics, and evaluate themselves row-at-a-time
// against storage for execution and for ground-truth cardinality checks.
type Predicate interface {
	// Eval reports whether row i of the table satisfies the predicate.
	Eval(t *storage.Table, row int) bool
	// String renders a SQL-ish form for EXPLAIN output.
	String() string
}

// CmpInt compares an int64 column against a constant (dates included).
type CmpInt struct {
	Col string
	Op  CmpOp
	Val int64
}

func (p CmpInt) Eval(t *storage.Table, row int) bool {
	v := t.MustColumn(p.Col).Ints[row]
	return cmpHolds(p.Op, v == p.Val, v < p.Val)
}

func (p CmpInt) String() string { return fmt.Sprintf("%s %s %d", p.Col, p.Op, p.Val) }

// CmpFloat compares a float64 column against a constant.
type CmpFloat struct {
	Col string
	Op  CmpOp
	Val float64
}

func (p CmpFloat) Eval(t *storage.Table, row int) bool {
	v := t.MustColumn(p.Col).Floats[row]
	return cmpHolds(p.Op, v == p.Val, v < p.Val)
}

func (p CmpFloat) String() string { return fmt.Sprintf("%s %s %g", p.Col, p.Op, p.Val) }

// CmpCols compares two int64 columns of the same relation (e.g. Q12's
// l_commitdate < l_receiptdate).
type CmpCols struct {
	Col1 string
	Op   CmpOp
	Col2 string
}

func (p CmpCols) Eval(t *storage.Table, row int) bool {
	a := t.MustColumn(p.Col1).Ints[row]
	b := t.MustColumn(p.Col2).Ints[row]
	return cmpHolds(p.Op, a == b, a < b)
}

func (p CmpCols) String() string { return fmt.Sprintf("%s %s %s", p.Col1, p.Op, p.Col2) }

// BetweenInt keeps rows with Lo <= col <= Hi.
type BetweenInt struct {
	Col    string
	Lo, Hi int64
}

func (p BetweenInt) Eval(t *storage.Table, row int) bool {
	v := t.MustColumn(p.Col).Ints[row]
	return v >= p.Lo && v <= p.Hi
}

func (p BetweenInt) String() string { return fmt.Sprintf("%s between %d and %d", p.Col, p.Lo, p.Hi) }

// BetweenFloat keeps rows with Lo <= col <= Hi.
type BetweenFloat struct {
	Col    string
	Lo, Hi float64
}

func (p BetweenFloat) Eval(t *storage.Table, row int) bool {
	v := t.MustColumn(p.Col).Floats[row]
	return v >= p.Lo && v <= p.Hi
}

func (p BetweenFloat) String() string {
	return fmt.Sprintf("%s between %g and %g", p.Col, p.Lo, p.Hi)
}

// InInt keeps rows whose int64 column is in Vals.
type InInt struct {
	Col  string
	Vals []int64
}

func (p InInt) Eval(t *storage.Table, row int) bool {
	v := t.MustColumn(p.Col).Ints[row]
	for _, x := range p.Vals {
		if v == x {
			return true
		}
	}
	return false
}

func (p InInt) String() string { return fmt.Sprintf("%s in %v", p.Col, p.Vals) }

// strAt decodes row of the named string column through its dictionary.
func strAt(t *storage.Table, col string, row int) string {
	d := t.MustColumn(col).Dict
	return d.Values[d.Codes[row]]
}

// StrEq keeps rows whose string column equals Val.
type StrEq struct {
	Col string
	Val string
}

func (p StrEq) Eval(t *storage.Table, row int) bool {
	return strAt(t, p.Col, row) == p.Val
}

func (p StrEq) String() string { return fmt.Sprintf("%s = '%s'", p.Col, p.Val) }

// StrNE keeps rows whose string column differs from Val.
type StrNE struct {
	Col string
	Val string
}

func (p StrNE) Eval(t *storage.Table, row int) bool {
	return strAt(t, p.Col, row) != p.Val
}

func (p StrNE) String() string { return fmt.Sprintf("%s <> '%s'", p.Col, p.Val) }

// StrIn keeps rows whose string column is one of Vals.
type StrIn struct {
	Col  string
	Vals []string
}

func (p StrIn) Eval(t *storage.Table, row int) bool {
	v := strAt(t, p.Col, row)
	for _, x := range p.Vals {
		if v == x {
			return true
		}
	}
	return false
}

func (p StrIn) String() string {
	return fmt.Sprintf("%s in ('%s')", p.Col, strings.Join(p.Vals, "','"))
}

// StrPrefix implements LIKE 'prefix%'.
type StrPrefix struct {
	Col    string
	Prefix string
}

func (p StrPrefix) Eval(t *storage.Table, row int) bool {
	return strings.HasPrefix(strAt(t, p.Col, row), p.Prefix)
}

func (p StrPrefix) String() string { return fmt.Sprintf("%s like '%s%%'", p.Col, p.Prefix) }

// StrContains implements LIKE '%a%b%': the substrings must appear in order.
type StrContains struct {
	Col  string
	Subs []string
}

func (p StrContains) Eval(t *storage.Table, row int) bool {
	s := strAt(t, p.Col, row)
	for _, sub := range p.Subs {
		i := strings.Index(s, sub)
		if i < 0 {
			return false
		}
		s = s[i+len(sub):]
	}
	return true
}

func (p StrContains) String() string {
	return fmt.Sprintf("%s like '%%%s%%'", p.Col, strings.Join(p.Subs, "%"))
}

// Not negates a predicate.
type Not struct{ P Predicate }

func (p Not) Eval(t *storage.Table, row int) bool { return !p.P.Eval(t, row) }
func (p Not) String() string                      { return "not (" + p.P.String() + ")" }

// And is a conjunction of predicates.
type And struct{ Ps []Predicate }

func (p And) Eval(t *storage.Table, row int) bool {
	for _, q := range p.Ps {
		if !q.Eval(t, row) {
			return false
		}
	}
	return true
}

func (p And) String() string { return joinPreds(p.Ps, " and ") }

// Or is a disjunction of predicates.
type Or struct{ Ps []Predicate }

func (p Or) Eval(t *storage.Table, row int) bool {
	for _, q := range p.Ps {
		if q.Eval(t, row) {
			return true
		}
	}
	return false
}

func (p Or) String() string { return joinPreds(p.Ps, " or ") }

func joinPreds(ps []Predicate, sep string) string {
	parts := make([]string, len(ps))
	for i, q := range ps {
		parts[i] = "(" + q.String() + ")"
	}
	return strings.Join(parts, sep)
}

func cmpHolds(op CmpOp, eq, lt bool) bool {
	switch op {
	case EQ:
		return eq
	case NE:
		return !eq
	case LT:
		return lt
	case LE:
		return lt || eq
	case GT:
		return !lt && !eq
	case GE:
		return !lt
	default:
		return false
	}
}
