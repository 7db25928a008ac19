// Package query models the planner's input: a single select-project-join
// block with base relations, executable local predicates, and a join graph
// of (possibly non-inner) equi-join clauses. This is the shape the paper's
// method operates on — "our costing method is limited to a single
// select-project-join query block" (§3.7).
package query

import (
	"math/bits"
	"strconv"
	"strings"
)

// RelSet is a bitset of relation indices within one Block (at most 64
// relations per block, far above TPC-H's maximum of 8).
type RelSet uint64

// NewRelSet builds a set from indices.
func NewRelSet(idxs ...int) RelSet {
	var s RelSet
	for _, i := range idxs {
		s |= 1 << uint(i)
	}
	return s
}

// Has reports whether relation i is in the set.
func (s RelSet) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// Add returns the set with relation i added.
func (s RelSet) Add(i int) RelSet { return s | 1<<uint(i) }

// Union returns s ∪ o.
func (s RelSet) Union(o RelSet) RelSet { return s | o }

// Minus returns s \ o.
func (s RelSet) Minus(o RelSet) RelSet { return s &^ o }

// SubsetOf reports whether s ⊆ o.
func (s RelSet) SubsetOf(o RelSet) bool { return s&^o == 0 }

// Overlaps reports whether s ∩ o ≠ ∅.
func (s RelSet) Overlaps(o RelSet) bool { return s&o != 0 }

// Empty reports whether the set has no members.
func (s RelSet) Empty() bool { return s == 0 }

// Count reports the number of relations in the set.
func (s RelSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Rank reports relation i's position among the set's ascending members —
// the column index of relation i in structures laid out in Members()
// order. One popcount; no lookup table.
func (s RelSet) Rank(i int) int {
	return bits.OnesCount64(uint64(s) & (1<<uint(i) - 1))
}

// Single reports whether the set has exactly one member.
func (s RelSet) Single() bool { return s != 0 && s&(s-1) == 0 }

// Members returns the indices in ascending order.
func (s RelSet) Members() []int {
	m := make([]int, 0, s.Count())
	for t := s; t != 0; t &= t - 1 {
		m = append(m, bits.TrailingZeros64(uint64(t)))
	}
	return m
}

// String renders like "{0,2,5}" for debugging and plan explanations.
func (s RelSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, m := range s.Members() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(m))
	}
	b.WriteByte('}')
	return b.String()
}
