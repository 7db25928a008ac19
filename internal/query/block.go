package query

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"bfcbo/internal/catalog"
)

// JoinType classifies a join clause. For Left, Semi and Anti the clause's
// left side is the row-preserving / probe-retaining side and the right side
// is the nullable / subquery side.
type JoinType int

const (
	// Inner is a plain equi-join; the enumerator may join it in any order.
	Inner JoinType = iota
	// Semi keeps left rows with at least one right match (EXISTS / IN).
	Semi
	// Anti keeps left rows with no right match (NOT EXISTS / NOT IN).
	Anti
	// Left is a left outer join preserving all left rows.
	Left
)

func (jt JoinType) String() string {
	switch jt {
	case Inner:
		return "inner"
	case Semi:
		return "semi"
	case Anti:
		return "anti"
	case Left:
		return "left"
	default:
		return fmt.Sprintf("JoinType(%d)", int(jt))
	}
}

// Relation is one base-table reference inside a block. The same catalog
// table may appear under several aliases (Q21 references lineitem 3 times).
type Relation struct {
	// Alias is unique within the block ("l", "n1", ...).
	Alias string
	// Table is the catalog entry backing this reference.
	Table *catalog.Table
	// Pred is the local (single-table) predicate, or nil.
	Pred Predicate
}

// JoinClause is a hashable equi-join clause between two relations of the
// block: left.LeftCol = right.RightCol.
type JoinClause struct {
	Type     JoinType
	LeftRel  int
	LeftCol  string
	RightRel int
	RightCol string
	// SubRels marks, for non-inner clauses, the unit of relations forming
	// the nullable/subquery side (always contains RightRel). The enumerator
	// does not move a join across this boundary. Ignored for Inner.
	SubRels RelSet
	// Derived marks clauses added by transitive closure of equi-join
	// equivalence; they enable extra join orders but are not counted twice
	// in selectivity estimation alongside their generating clauses.
	Derived bool
}

func (c JoinClause) String() string {
	return fmt.Sprintf("[%d].%s %s= [%d].%s", c.LeftRel, c.LeftCol, c.Type, c.RightRel, c.RightCol)
}

// Rels returns the set {LeftRel, RightRel}.
func (c JoinClause) Rels() RelSet { return NewRelSet(c.LeftRel, c.RightRel) }

// Block is a single select-project-join query block: the planner's input.
type Block struct {
	Name      string
	Relations []Relation
	Clauses   []JoinClause
}

// AllRels returns the set of all relation indices in the block.
func (b *Block) AllRels() RelSet {
	return RelSet(1)<<uint(len(b.Relations)) - 1
}

// RelIndex resolves an alias to its index, or -1.
func (b *Block) RelIndex(alias string) int {
	for i, r := range b.Relations {
		if r.Alias == alias {
			return i
		}
	}
	return -1
}

// Validate checks internal consistency: clause endpoints exist, join columns
// are Int64 columns of their tables, SubRels are set exactly for non-inner
// clauses, and the join graph is connected (the enumerator requires it; a
// disconnected graph would need cross products, which TPC-H never does).
func (b *Block) Validate() error {
	if len(b.Relations) == 0 {
		return fmt.Errorf("query: block %q has no relations", b.Name)
	}
	if len(b.Relations) > 64 {
		return fmt.Errorf("query: block %q has %d relations; max 64", b.Name, len(b.Relations))
	}
	seen := make(map[string]bool, len(b.Relations))
	for i, r := range b.Relations {
		if r.Table == nil {
			return fmt.Errorf("query: block %q relation %d has nil table", b.Name, i)
		}
		if r.Alias == "" {
			return fmt.Errorf("query: block %q relation %d has empty alias", b.Name, i)
		}
		if seen[r.Alias] {
			return fmt.Errorf("query: block %q duplicate alias %q", b.Name, r.Alias)
		}
		seen[r.Alias] = true
	}
	for i, c := range b.Clauses {
		if c.LeftRel < 0 || c.LeftRel >= len(b.Relations) || c.RightRel < 0 || c.RightRel >= len(b.Relations) {
			return fmt.Errorf("query: block %q clause %d references missing relation", b.Name, i)
		}
		if c.LeftRel == c.RightRel {
			return fmt.Errorf("query: block %q clause %d joins a relation to itself", b.Name, i)
		}
		for _, side := range []struct {
			rel int
			col string
		}{{c.LeftRel, c.LeftCol}, {c.RightRel, c.RightCol}} {
			col, err := b.Relations[side.rel].Table.Column(side.col)
			if err != nil {
				return fmt.Errorf("query: block %q clause %d: %w", b.Name, i, err)
			}
			if col.Type != catalog.Int64 {
				return fmt.Errorf("query: block %q clause %d join column %s.%s is %s; join keys must be int64",
					b.Name, i, b.Relations[side.rel].Alias, side.col, col.Type)
			}
		}
		if c.Type != Inner {
			if !c.SubRels.Has(c.RightRel) {
				return fmt.Errorf("query: block %q clause %d (%s) SubRels %s must contain right relation %d",
					b.Name, i, c.Type, c.SubRels, c.RightRel)
			}
			if c.SubRels.Has(c.LeftRel) {
				return fmt.Errorf("query: block %q clause %d (%s) SubRels %s must not contain left relation %d",
					b.Name, i, c.Type, c.SubRels, c.LeftRel)
			}
		} else if !c.SubRels.Empty() {
			return fmt.Errorf("query: block %q clause %d is inner but has SubRels %s", b.Name, i, c.SubRels)
		}
	}
	if len(b.Relations) > 1 && !b.connected() {
		return fmt.Errorf("query: block %q join graph is disconnected", b.Name)
	}
	return nil
}

func (b *Block) connected() bool {
	reach := NewRelSet(0)
	for changed := true; changed; {
		changed = false
		for _, c := range b.Clauses {
			l, r := reach.Has(c.LeftRel), reach.Has(c.RightRel)
			if l != r {
				reach = reach.Add(c.LeftRel).Add(c.RightRel)
				changed = true
			}
		}
	}
	return reach == b.AllRels()
}

// Endpoint is one side of an equi-join clause: a column of a relation.
type Endpoint struct {
	Rel int
	Col string
}

func compareEndpoints(a, b Endpoint) int {
	if c := cmp.Compare(a.Rel, b.Rel); c != 0 {
		return c
	}
	return cmp.Compare(a.Col, b.Col)
}

// TransitiveClosure computes the equivalence classes of the Inner equi-join
// endpoints (à la PostgreSQL) and returns a fresh clause list — the given
// clauses followed by every implied clause that is missing, marked Derived —
// together with the classes. For example, from s_suppkey = l_suppkey and
// ps_suppkey = l_suppkey it derives s_suppkey = ps_suppkey, enabling the
// supplier–partsupp join order. Classes, their members and therefore the
// derived clauses are sorted by (relation, column): the result is a pure
// function of the input, which plans, EXPLAIN text and fingerprints built
// from it rely on.
func TransitiveClosure(clauses []JoinClause) ([]JoinClause, [][]Endpoint) {
	parent := make(map[Endpoint]Endpoint)
	var find func(e Endpoint) Endpoint
	find = func(e Endpoint) Endpoint {
		p, ok := parent[e]
		if !ok || p == e {
			parent[e] = e
			return e
		}
		root := find(p)
		parent[e] = root
		return root
	}
	have := make(map[[2]Endpoint]bool)
	for _, c := range clauses {
		if c.Type != Inner {
			continue
		}
		l, r := Endpoint{c.LeftRel, c.LeftCol}, Endpoint{c.RightRel, c.RightCol}
		parent[find(l)] = find(r)
		have[[2]Endpoint{l, r}], have[[2]Endpoint{r, l}] = true, true
	}
	byRoot := make(map[Endpoint][]Endpoint)
	for e := range parent {
		r := find(e)
		byRoot[r] = append(byRoot[r], e)
	}
	classes := make([][]Endpoint, 0, len(byRoot))
	for _, members := range byRoot {
		slices.SortFunc(members, compareEndpoints)
		classes = append(classes, members)
	}
	slices.SortFunc(classes, func(x, y []Endpoint) int { return compareEndpoints(x[0], y[0]) })

	closed := slices.Clone(clauses)
	for _, members := range classes {
		for i, l := range members {
			for _, r := range members[i+1:] {
				if l.Rel == r.Rel || have[[2]Endpoint{l, r}] {
					continue
				}
				closed = append(closed, JoinClause{
					Type: Inner, LeftRel: l.Rel, LeftCol: l.Col,
					RightRel: r.Rel, RightCol: r.Col, Derived: true,
				})
			}
		}
	}
	return closed, classes
}

// AddTransitiveClauses appends the block's missing implied clauses (see
// TransitiveClosure) to b.Clauses. The optimizer does not need it called:
// it closes a private copy of the clause list and leaves the block alone.
func (b *Block) AddTransitiveClauses() {
	b.Clauses, _ = TransitiveClosure(b.Clauses)
}

// String renders a compact description for EXPLAIN/debug output.
func (b *Block) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "block %s\n", b.Name)
	for i, r := range b.Relations {
		pred := ""
		if r.Pred != nil {
			pred = "  where " + r.Pred.String()
		}
		fmt.Fprintf(&sb, "  [%d] %s (%s)%s\n", i, r.Alias, r.Table.Name, pred)
	}
	for _, c := range b.Clauses {
		fmt.Fprintf(&sb, "  %s\n", c)
	}
	return sb.String()
}
