package stats

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"bfcbo/internal/bloom"
	"bfcbo/internal/query"
)

// Estimator computes cardinalities for one query block. It memoizes
// per-relation filtered cardinalities and per-set join cardinalities so that
// the canonical estimate for a relation set is split-independent — the paper
// relies on this when a resolved Bloom filter sub-plan's cardinality
// "simply becomes the original cardinality estimate for the joined
// relation" (§3.6). It also memoizes each relation's kept fraction under a
// build side δ, which every Bloom filter estimate reads: an optimization
// asks for the same (relation, δ) many times over. An Estimator is not safe
// for concurrent use.
type Estimator struct {
	Block *query.Block

	baseRows []float64 // rows after local predicates, per relation
	baseSel  []float64 // local predicate selectivity, per relation
	joinCard map[query.RelSet]float64
	kept     map[keptKey]float64 // relKept's memo; nil until first asked

	// pairs holds, per relation pair that inner clauses join, the factors
	// those clauses contribute to a join estimate; units holds the non-inner
	// clauses. Both are in clause order (see JoinCard).
	pairs []pairFactors
	units []query.JoinClause

	// fks are the block's declared foreign keys, by referencing relation:
	// each one the catalog declares onto the primary key of a table that is
	// also a relation of the block.
	fks [][]fkRef
	// keyJoins are the relation pairs the block joins on every column of a
	// composite key through a declared foreign key; keyClause marks, by
	// clause index, the clauses that make them up. Both are nil in a block
	// with no such pair.
	keyJoins  []keyJoin
	keyClause []bool
}

// keptKey is one relKept question: relation rel under build side delta.
type keptKey struct {
	rel   int
	delta query.RelSet
}

// pairFactors is one relation pair's part of a join estimate: the pair's
// inner clause selectivities, ascending, each raised to its backoff
// exponent.
type pairFactors struct {
	pair    query.RelSet
	factors []float64
}

// fkRef is one declared foreign key between two relations of a block: the
// referencing relation's cols (it is the fks index) reference keyCols, the
// primary key of relation key, column for column.
type fkRef struct {
	key           int
	cols, keyCols []string
}

// keyJoin is a relation pair joined on all of one side's composite key: the
// pair's rows are the foreign-key side's, each matching exactly one key row.
type keyJoin struct {
	pair query.RelSet
	sel  float64 // 1/|key side| before local predicates
}

// NewEstimator prepares an estimator for a validated block.
func NewEstimator(b *query.Block) *Estimator {
	e := &Estimator{
		Block:    b,
		baseRows: make([]float64, len(b.Relations)),
		baseSel:  make([]float64, len(b.Relations)),
		joinCard: make(map[query.RelSet]float64),
	}
	for i, r := range b.Relations {
		sel := PredicateSelectivity(r.Table, r.Pred)
		e.baseSel[i] = sel
		rows := r.Table.RowCount * sel
		if rows < 1 {
			rows = 1
		}
		e.baseRows[i] = rows
	}
	e.indexKeys()
	e.indexClauses()
	return e
}

// indexKeys reads the catalog's key declarations for the block: fks, and
// the composite key joins among the block's own inner clauses. A
// single-column foreign key keeps its clause's estimate.
func (e *Estimator) indexKeys() {
	rels := e.Block.Relations
	e.fks = make([][]fkRef, len(rels))
	for i, r := range rels {
		for _, fk := range r.Table.ForeignKeys {
			for k, ref := range rels {
				if ref.Table.Name != fk.RefTable || !ref.Table.IsKey(fk.RefColumns()) {
					continue
				}
				f := fkRef{key: k, cols: fk.Columns(), keyCols: fk.RefColumns()}
				e.fks[i] = append(e.fks[i], f)
				if len(f.cols) < 2 {
					continue
				}
				if clauses := e.keyClauses(i, f); clauses != nil {
					if e.keyClause == nil {
						e.keyClause = make([]bool, len(e.Block.Clauses))
					}
					for _, c := range clauses {
						e.keyClause[c] = true
					}
					e.keyJoins = append(e.keyJoins, keyJoin{
						pair: query.NewRelSet(i, k),
						sel:  1 / math.Max(ref.Table.RowCount, 1),
					})
				}
			}
		}
	}
}

// keyClauses returns the indexes of the block's own inner clauses that join
// relation rel to fk's key relation on each of fk's column pairs, or nil
// if a pair has no such clause or its clause already makes up another key
// join.
func (e *Estimator) keyClauses(rel int, fk fkRef) []int {
	clauses := make([]int, len(fk.cols))
	for j, col := range fk.cols {
		kc := fk.keyCols[j]
		c := slices.IndexFunc(e.Block.Clauses, func(c query.JoinClause) bool {
			return c.Type == query.Inner && !c.Derived &&
				(c.LeftRel == rel && c.LeftCol == col && c.RightRel == fk.key && c.RightCol == kc ||
					c.RightRel == rel && c.RightCol == col && c.LeftRel == fk.key && c.LeftCol == kc)
		})
		if c < 0 || (e.keyClause != nil && e.keyClause[c]) {
			return nil
		}
		clauses[j] = c
	}
	return clauses
}

// indexClauses computes what JoinCard reads of each clause once: the
// non-inner clauses, and each relation pair's inner clause factors. Derived
// clauses are skipped so transitive closure does not double-count. A pair
// joined on every column of a declared composite key (lineitem ⋈ partsupp
// on partkey AND suppkey) is a foreign-key join: its key clauses enter as
// one selectivity, 1/|key side|, through keyJoins. Other clauses between the same relation pair
// may still be correlated, and assuming independence would underestimate
// by orders of magnitude, so selectivities beyond the most selective clause
// per pair enter with exponential backoff (s, √s, ∜s, ...), as SQL Server
// does. Pairs are kept in clause order: float multiplication is not
// associative, so a map's iteration order would show in the estimate's last
// bits.
func (e *Estimator) indexClauses() {
	for ci, c := range e.Block.Clauses {
		if c.Type != query.Inner {
			e.units = append(e.units, c)
			continue
		}
		if c.Derived || (e.keyClause != nil && e.keyClause[ci]) {
			continue
		}
		pair := query.NewRelSet(c.LeftRel, c.RightRel)
		i := slices.IndexFunc(e.pairs, func(p pairFactors) bool { return p.pair == pair })
		if i < 0 {
			i = len(e.pairs)
			e.pairs = append(e.pairs, pairFactors{pair: pair})
		}
		e.pairs[i].factors = append(e.pairs[i].factors, e.ClauseSelectivity(c))
	}
	for _, p := range e.pairs {
		sort.Float64s(p.factors)
		exp := 1.0
		for i, s := range p.factors {
			p.factors[i] = math.Pow(s, exp)
			exp /= 2
		}
	}
}

// BaseRows returns the estimated rows of relation i after local predicates.
func (e *Estimator) BaseRows(i int) float64 { return e.baseRows[i] }

// colNDV returns the base NDV of rel.col (before local predicates),
// defaulting to the table row count when statistics are absent.
func (e *Estimator) colNDV(rel int, col string) float64 {
	t := e.Block.Relations[rel].Table
	c, err := t.Column(col)
	if err != nil || c.Stats.NDV <= 0 {
		if t.RowCount > 0 {
			return t.RowCount
		}
		return 1
	}
	return c.Stats.NDV
}

// NDVAfterLocal returns the NDV of rel.col after rel's local predicates,
// via Yao's formula.
func (e *Estimator) NDVAfterLocal(rel int, col string) float64 {
	t := e.Block.Relations[rel].Table
	d := e.colNDV(rel, col)
	return NDVAfterFilter(d, math.Max(t.RowCount, 1), e.baseRows[rel])
}

// ClauseSelectivity is the standard equi-join selectivity
// 1 / max(ndv(left), ndv(right)) with NDVs taken after local predicates.
func (e *Estimator) ClauseSelectivity(c query.JoinClause) float64 {
	dl := e.NDVAfterLocal(c.LeftRel, c.LeftCol)
	dr := e.NDVAfterLocal(c.RightRel, c.RightCol)
	d := math.Max(dl, dr)
	if d < 1 {
		d = 1
	}
	return 1 / d
}

// JoinCard returns the canonical cardinality estimate for the join of the
// relations in s (with their local predicates), independent of join order.
// Semi/anti/left units contribute a row-fraction instead of a cross-product
// term, mirroring how an unnested EXISTS behaves.
func (e *Estimator) JoinCard(s query.RelSet) float64 {
	if card, ok := e.joinCard[s]; ok {
		return card
	}
	// Relations absorbed by a fully-contained non-inner unit contribute
	// through the unit's selectivity, not their own cardinality.
	absorbed := query.RelSet(0)
	for _, c := range e.units {
		if c.SubRels.SubsetOf(s) && s.Has(c.LeftRel) {
			absorbed = absorbed.Union(c.SubRels)
		}
	}
	rows := 1.0
	counted := s.Minus(absorbed)
	for m := uint64(counted); m != 0; m &= m - 1 {
		rows *= e.baseRows[bits.TrailingZeros64(m)]
	}
	// Inner clause selectivities among counted relations (see
	// indexClauses): composite key joins first, then each pair's factors.
	for _, k := range e.keyJoins {
		if k.pair.SubsetOf(counted) {
			rows *= k.sel
		}
	}
	for _, p := range e.pairs {
		if p.pair.SubsetOf(counted) {
			for _, f := range p.factors {
				rows *= f
			}
		}
	}
	// Non-inner units: multiply by the retained fraction of the preserve
	// side's rows.
	for _, c := range e.units {
		if !c.SubRels.SubsetOf(s) || !s.Has(c.LeftRel) {
			continue
		}
		frac := e.SemiJoinFraction(c.LeftRel, c.LeftCol, c.RightRel, c.RightCol, c.SubRels)
		switch c.Type {
		case query.Semi:
			rows *= frac
		case query.Anti:
			af := 1 - frac
			if af < 0.005 {
				af = 0.005 // anti joins rarely eliminate everything
			}
			rows *= af
		case query.Left:
			// A left join cannot drop preserve-side rows; approximate as
			// the inner estimate clamped below by the preserve side.
			inner := rows * frac
			if inner > rows {
				rows = inner
			}
		}
	}
	if rows < 1 {
		rows = 1
	}
	e.joinCard[s] = rows
	return rows
}

// relKeptFraction estimates the fraction of relation rel's (locally
// filtered) rows that survive being joined with the other relations of
// delta, by propagating semi-join reductions along the clauses inside delta
// (predicate-transfer style, acyclic traversal). It is the quantity that
// makes |R0 ⋉ (R1,R2)| differ from |R0 ⋉ R1| in Fig. 2 of the paper.
func (e *Estimator) relKeptFraction(rel int, delta query.RelSet, visited query.RelSet) float64 {
	frac := 1.0
	visited = visited.Add(rel)
	for _, c := range e.Block.Clauses {
		if c.Type != query.Inner && c.Type != query.Semi {
			continue
		}
		var other int
		var myCol, otherCol string
		switch {
		case c.LeftRel == rel && delta.Has(c.RightRel):
			other, myCol, otherCol = c.RightRel, c.LeftCol, c.RightCol
		case c.RightRel == rel && delta.Has(c.LeftRel):
			other, myCol, otherCol = c.LeftRel, c.RightCol, c.LeftCol
		default:
			continue
		}
		if visited.Has(other) {
			continue
		}
		frac *= e.semiFracOneHop(rel, myCol, other, otherCol, e.relKeptFraction(other, delta, visited))
	}
	if frac > 1 {
		frac = 1
	}
	if frac < minSel {
		frac = minSel
	}
	return frac
}

// relKept is relKeptFraction(rel, delta, ∅), each (rel, delta) computed
// once per estimator.
func (e *Estimator) relKept(rel int, delta query.RelSet) float64 {
	k := keptKey{rel, delta}
	if frac, ok := e.kept[k]; ok {
		return frac
	}
	frac := e.relKeptFraction(rel, delta, 0)
	if e.kept == nil {
		e.kept = make(map[keptKey]float64)
	}
	e.kept[k] = frac
	return frac
}

// semiFracOneHop is the fraction of rel's rows whose myCol value appears in
// other.otherCol after other has been reduced by its own local predicate and
// by its neighbors inside delta, to otherKept of its rows.
func (e *Estimator) semiFracOneHop(rel int, myCol string, other int, otherCol string, otherKept float64) float64 {
	otherRowsBase := math.Max(e.Block.Relations[other].Table.RowCount, 1)
	otherRowsEff := e.baseRows[other] * otherKept
	dOther := NDVAfterFilter(e.colNDV(other, otherCol), otherRowsBase, otherRowsEff)
	domain := math.Max(e.colNDV(rel, myCol), e.colNDV(other, otherCol))
	if domain < 1 {
		domain = 1
	}
	frac := dOther / domain
	if frac > 1 {
		frac = 1
	}
	return frac
}

// SemiJoinFraction estimates the fraction of applyRel's rows retained by a
// semi-join (equivalently, an ideal Bloom filter with zero false positives)
// on the clause applyRel.applyCol = buildRel.buildCol, where the build side
// is the joined set delta (which must contain buildRel).
// The propagation inside delta never steps back onto applyRel unless delta
// holds it, so outside that case the memoized kept fraction is the same
// number.
func (e *Estimator) SemiJoinFraction(applyRel int, applyCol string, buildRel int, buildCol string, delta query.RelSet) float64 {
	var kept float64
	if delta.Has(applyRel) {
		kept = e.relKeptFraction(buildRel, delta, query.NewRelSet(applyRel))
	} else {
		kept = e.relKept(buildRel, delta)
	}
	return e.semiFracOneHop(applyRel, applyCol, buildRel, buildCol, kept)
}

// BuildNDV estimates the number of distinct buildCol values the build side
// will insert into a Bloom filter when the hash-join build side is the
// joined set delta. The optimizer uses it both to size the filter (and
// enforce Heuristic 5) and to compute the false-positive rate.
func (e *Estimator) BuildNDV(buildRel int, buildCol string, delta query.RelSet) float64 {
	kept := e.relKept(buildRel, delta)
	base := math.Max(e.Block.Relations[buildRel].Table.RowCount, 1)
	eff := e.baseRows[buildRel] * kept
	return NDVAfterFilter(e.colNDV(buildRel, buildCol), base, eff)
}

// ModelFPR is the false-positive rate the planner assumes for every Bloom
// filter: the theoretical FPR of a 2-hash filter at the executor's design
// ratio of 8 bits per expected distinct key, ≈ 4.9 %. Using the design
// ratio rather than the power-of-two-rounded runtime size keeps the
// estimate monotone in δ (a strictly better build side always yields a
// strictly lower estimate); the runtime filter's true FPR is at or below
// this value because rounding only adds bits. The executor builds 16 bits
// per key (bloom.BitsForNDV), not the 8 modelled here; closing that gap is
// ROADMAP item 2(a), and until then this value stays.
var ModelFPR = bloom.FPR(1000, 8000)

// BloomKept is the planning-time reduction factor of a Bloom filter whose
// ideal semi-join (SemiJoinFraction) keeps frac of the probe rows: frac
// plus leakage from the filter's false-positive rate on the rest,
// |R ˆ⋉ δ| / |R| in the paper's notation.
func BloomKept(frac float64) float64 {
	kept := frac + (1-frac)*ModelFPR
	if kept > 1 {
		kept = 1
	}
	return kept
}

// CompositeKeptFraction estimates the reduction of a multi-column Bloom
// filter over a pair of apply columns = (buildRel.b1, b2) with build side
// delta. The planner's one composite candidate in TPC-H is the
// declared foreign key lineitem (l_partkey, l_suppkey) → partsupp's key:
// each probe row hits exactly one build row, so the kept fraction is the
// fraction of build rows surviving within δ, plus the filter's
// false-positive leakage (§5 future-work extension).
func (e *Estimator) CompositeKeptFraction(buildRel int, delta query.RelSet) float64 {
	base := math.Max(e.Block.Relations[buildRel].Table.RowCount, 1)
	eff := e.baseRows[buildRel] * e.relKept(buildRel, delta)
	frac := eff / base
	if frac > 1 {
		frac = 1
	}
	return BloomKept(frac)
}

// CompositeBuildNDV estimates the distinct composite keys the build side
// inserts: its surviving rows, since the pair is the build table's key.
func (e *Estimator) CompositeBuildNDV(buildRel int, delta query.RelSet) float64 {
	return e.baseRows[buildRel] * e.relKept(buildRel, delta)
}

// FKToPK reports whether applyRel's applyCols are a declared foreign key
// onto buildCols, buildRel's primary key, column for column: the
// precondition of Heuristic 3. A composite key's columns may come in any
// order, each paired with the column it references.
func (e *Estimator) FKToPK(applyRel int, applyCols []string, buildRel int, buildCols []string) bool {
	for _, fk := range e.fks[applyRel] {
		if fk.key != buildRel || len(fk.cols) != len(applyCols) || len(buildCols) != len(applyCols) {
			continue
		}
		matched := true
		for i, c := range applyCols {
			j := slices.Index(fk.cols, c)
			if j < 0 || fk.keyCols[j] != buildCols[i] {
				matched = false
				break
			}
		}
		if matched {
			return true
		}
	}
	return false
}

// LosslessPK reports whether, for an FK→PK Bloom filter candidate, the
// primary-key build side loses no keys under delta: no local predicate on
// the build relation and no reduction from other delta members. In that
// case the Bloom filter cannot remove any probe rows (Heuristic 3, §3.4).
func (e *Estimator) LosslessPK(applyRel int, applyCols []string, buildRel int, buildCols []string, delta query.RelSet) bool {
	if !e.FKToPK(applyRel, applyCols, buildRel, buildCols) {
		return false
	}
	if e.baseSel[buildRel] < 0.999999 {
		return false // local predicate filters the PK side
	}
	return e.relKept(buildRel, delta) > 0.999999
}
