package exec

import (
	"fmt"
	"time"

	"bfcbo/internal/hashtab"
	"bfcbo/internal/mem"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
)

// This file is the aggregation layer above the join block — enough to
// compute the TPC-H answer expressions (counts, revenue sums, per-group
// counts and sums) the paper's queries report. Full GROUP BY planning is
// outside the reproduction's scope.
//
// When Options.Aggregates is set, the root pipeline's result sink is the
// streaming aggSink: each worker folds its batches into private partials,
// merged once at the end, so the final join output is never materialized.
// The reference interpreter folds its materialized result through the same
// accumulators (runReference). Every number reported is an integer
// count or a hashtab.Sum — integers added with carry and rounded to
// float64 once, at result assembly — so a value depends only on the
// multiset of rows folded: not on which worker claimed which morsel, the
// DOP, the morsel size, or whether a join spilled. Streaming, reference and
// every schedule agree bit for bit.
//
// Group keys are interned to dense int codes once per run (groupDict), so
// the per-row group path is an integer probe of a flat hashtab.AggTable;
// Go maps appear only in that interning step and in AggValue's result
// fields, O(groups) once per query.

// AggKind selects the aggregate computed by one AggSpec.
type AggKind int

const (
	// AggCountStar counts result rows; no columns needed.
	AggCountStar AggKind = iota
	// AggSum sums the float column Rel.Col (null-extended rows skipped).
	AggSum
	// AggRevenue computes Σ price·(1 − discount) over Rel.
	AggRevenue
	// AggGroupCount counts rows per value of the string column KeyRel.KeyCol
	// (null-extended rows count under "<null>").
	AggGroupCount
	// AggGroupRevenue computes Σ price·(1 − discount) over Rel per value of
	// KeyRel.KeyCol (rows with either side null-extended are skipped).
	AggGroupRevenue
)

// AggSpec describes one aggregate over the final join output.
type AggSpec struct {
	Kind AggKind
	// Rel / Col locate the value column (AggSum), or Rel + PriceCol/DiscCol
	// the revenue columns (AggRevenue, AggGroupRevenue).
	Rel               int
	Col               string
	PriceCol, DiscCol string
	// KeyRel / KeyCol locate the string grouping column (AggGroupCount,
	// AggGroupRevenue).
	KeyRel int
	KeyCol string
	// EstGroups is the caller's distinct-group estimate for the grouping
	// key (0 = use a built-in default); it sizes the sink's up-front
	// memory reservation, which finish tops up to the observed count.
	EstGroups float64
}

// AggValue is the computed result of one AggSpec; the field matching the
// spec's kind is populated.
type AggValue struct {
	Count     int64
	Sum       float64
	Groups    map[string]int
	GroupSums map[string]float64
}

// groupDict is one string key column interned into dense int codes: the
// setup step that turns every per-row group lookup into an integer probe
// of the flat aggregation table. codes is indexed by base-table row id;
// names maps a code back to its string for result assembly. The null
// (outer-join-extended) group uses code nullGroupCode.
type groupDict struct {
	names []string
	codes []int32
}

// nullGroupCode keys the "<null>" group in the flat aggregation tables.
const nullGroupCode = int64(-1)

// nullGroupName is the reported name of the null-extended group.
const nullGroupName = "<null>"

// groupDictFor interns a string column once per run (cached across
// specs sharing a key column). When the storage layer holds the column's
// dictionary encoding, the group dictionary derives from it with one
// int32 remap pass — no per-row string hashing at all; map interning
// remains as the fallback. Setup-only either way: the per-row fold path
// never hashes a string again. Group-code assignment order is immaterial
// to results (groups are reported by name).
func (ex *executor) groupDictFor(rel int, col string, vals []string) *groupDict {
	key := fmt.Sprintf("%d.%s", rel, col)
	ex.smu.Lock()
	defer ex.smu.Unlock()
	if d, ok := ex.dicts[key]; ok {
		return d
	}
	d := newGroupDict(ex.tables[rel], col, vals)
	if ex.dicts == nil {
		ex.dicts = make(map[string]*groupDict)
	}
	ex.dicts[key] = d
	return d
}

// newGroupDict builds the group dictionary of tbl.col, whose values are
// vals: from the table's dictionary encoding when it has one — the
// distinct values are already known, so the per-row pass is an int32 code
// remap instead of a map probe per string — else by map interning.
func newGroupDict(tbl *storage.Table, col string, vals []string) *groupDict {
	sd, err := tbl.Dict(col)
	if err != nil {
		return internGroupDict(vals)
	}
	d := &groupDict{codes: make([]int32, len(sd.Codes))}
	remap := make([]int32, len(sd.Values))
	for i, v := range sd.Values {
		if v == nullGroupName {
			// A literal "<null>" value must share the null-extended rows'
			// code: both report under the one "<null>" group.
			remap[i] = int32(nullGroupCode)
			continue
		}
		remap[i] = int32(len(d.names))
		d.names = append(d.names, v)
	}
	for r, c := range sd.Codes {
		d.codes[r] = remap[c]
	}
	return d
}

// internGroupDict is the map-interning fallback for columns without a
// storage dictionary.
func internGroupDict(vals []string) *groupDict {
	d := &groupDict{codes: make([]int32, len(vals))}
	seen := make(map[string]int32, 64)
	for i, s := range vals {
		if s == nullGroupName {
			d.codes[i] = int32(nullGroupCode)
			continue
		}
		code, ok := seen[s]
		if !ok {
			code = int32(len(d.names))
			seen[s] = code
			d.names = append(d.names, s)
		}
		d.codes[i] = code
	}
	return d
}

// name maps a group code back to its string.
func (d *groupDict) name(code int64) string {
	if code == nullGroupCode {
		return nullGroupName
	}
	return d.names[code]
}

// aggCols is one spec with its column vectors resolved against storage.
type aggCols struct {
	spec        AggSpec
	vals        []float64 // AggSum value column
	price, disc []float64
	dict        *groupDict // interned group key column
}

// resolveAgg binds one spec's columns; dictFor supplies the interned
// dictionary of a group-key column.
func resolveAgg(tables []*storage.Table, spec AggSpec,
	dictFor func(rel int, col string, vals []string) *groupDict) (aggCols, error) {
	a := aggCols{spec: spec}
	var err error
	floatCol := func(rel int, name string) ([]float64, error) {
		c, err := tables[rel].Column(name)
		if err != nil {
			return nil, err
		}
		if c.Floats == nil {
			return nil, fmt.Errorf("exec: aggregate needs a float column, %s.%s is not", tables[rel].Name, name)
		}
		return c.Floats, nil
	}
	switch spec.Kind {
	case AggCountStar:
	case AggSum:
		if a.vals, err = floatCol(spec.Rel, spec.Col); err != nil {
			return a, err
		}
	case AggRevenue, AggGroupRevenue:
		if a.price, err = floatCol(spec.Rel, spec.PriceCol); err != nil {
			return a, err
		}
		if a.disc, err = floatCol(spec.Rel, spec.DiscCol); err != nil {
			return a, err
		}
	}
	switch spec.Kind {
	case AggGroupCount, AggGroupRevenue:
		c, err := tables[spec.KeyRel].Column(spec.KeyCol)
		if err != nil {
			return a, err
		}
		if c.Strings == nil {
			return a, fmt.Errorf("exec: aggregate group key must be a string column, %s.%s is not",
				tables[spec.KeyRel].Name, spec.KeyCol)
		}
		a.dict = dictFor(spec.KeyRel, spec.KeyCol, c.Strings)
	}
	return a, nil
}

// aggPartial is one accumulator for one spec: a worker's share of the
// stream, the cross-worker merge of those, or the reference interpreter's
// whole result. Group aggregates accumulate in a flat hashtab.AggTable
// keyed by interned group codes.
type aggPartial struct {
	count int64
	sum   hashtab.Sum
	tab   *hashtab.AggTable
}

// groupTab returns the partial's group table, created on first use.
func (a *aggCols) groupTab(p *aggPartial) *hashtab.AggTable {
	if p.tab == nil {
		p.tab = hashtab.NewAgg(len(a.dict.names) + 1)
	}
	return p.tab
}

// fold accumulates a row set into the partial, row at a time: the
// reference interpreter's path and the streaming sink's path for
// the non-group kinds, which are single column loops already. The group
// kinds cost one code load, one hash mix and one integer directory probe
// per row.
func (a *aggCols) fold(p *aggPartial, b *RowSet) {
	switch a.spec.Kind {
	case AggCountStar:
		p.count += int64(b.Len())
	case AggSum:
		for _, id := range b.Col(a.spec.Rel) {
			if id < 0 {
				continue
			}
			p.sum.Add(a.vals[id])
		}
	case AggRevenue:
		for _, id := range b.Col(a.spec.Rel) {
			if id < 0 {
				continue
			}
			p.sum.Add(a.price[id] * (1 - a.disc[id]))
		}
	case AggGroupCount:
		tab, codes := a.groupTab(p), a.dict.codes
		for _, id := range b.Col(a.spec.KeyRel) {
			code := nullGroupCode
			if id >= 0 {
				code = int64(codes[id])
			}
			tab.Add(code, 1, 0)
		}
	case AggGroupRevenue:
		keys := b.Col(a.spec.KeyRel)
		vals := b.Col(a.spec.Rel)
		tab, codes := a.groupTab(p), a.dict.codes
		for i := range keys {
			if keys[i] < 0 || vals[i] < 0 {
				continue
			}
			tab.Add(int64(codes[keys[i]]), 0, a.price[vals[i]]*(1-a.disc[vals[i]]))
		}
	}
}

// value assembles the reported result from a fully accumulated partial:
// the one place sums are rounded to float64 and group codes turn back
// into names.
func (a *aggCols) value(p *aggPartial) AggValue {
	v := AggValue{Count: p.count, Sum: p.sum.Float64()}
	if p.tab.Len() == 0 {
		return v
	}
	switch a.spec.Kind {
	case AggGroupCount:
		v.Groups = make(map[string]int, p.tab.Len())
		p.tab.Each(func(k, c int64, _ hashtab.Sum) { v.Groups[a.dict.name(k)] = int(c) })
	case AggGroupRevenue:
		v.GroupSums = make(map[string]float64, p.tab.Len())
		p.tab.Each(func(k, _ int64, sum hashtab.Sum) { v.GroupSums[a.dict.name(k)] = sum.Float64() })
	}
	return v
}

// aggScratch is one worker's reusable fold scratch: the per-batch group
// code, measure and hash vectors the vectorized fold gathers into —
// recycled across batches so the steady-state fold loop allocates
// nothing.
type aggScratch struct {
	codes  []int64
	meas   []float64
	hashes []uint64
}

func (scr *aggScratch) ensure(n int) {
	if cap(scr.codes) < n {
		scr.codes = make([]int64, n)
		scr.meas = make([]float64, n)
	}
}

// foldBatch is the vectorized fold: the group paths gather the code and
// measure vectors once per batch — straight off the batch's dictCodes
// side channel when it covers the key column, else through the interned
// dictionary — hash the whole code vector once via HashVec, and fold
// through AggTable.AddHash in a tight loop. Non-group kinds are already
// single-pass column loops and delegate to fold. Returns the number of
// rows whose group code rode the batch channel.
func (a *aggCols) foldBatch(p *aggPartial, b *Batch, scr *aggScratch) int64 {
	switch a.spec.Kind {
	case AggGroupCount:
		tab := a.groupTab(p)
		n := b.rows.Len()
		scr.ensure(n)
		codes := scr.codes[:n]
		var reused int64
		if cc := b.codesFor(a.spec.KeyRel, a.spec.KeyCol); cc != nil {
			for i, c := range cc {
				codes[i] = int64(c)
			}
			reused = int64(n)
		} else {
			dc := a.dict.codes
			for i, id := range b.rows.Col(a.spec.KeyRel) {
				if id < 0 {
					codes[i] = nullGroupCode
				} else {
					codes[i] = int64(dc[id])
				}
			}
		}
		scr.hashes = hashtab.HashVec(codes, scr.hashes)
		for i, c := range codes {
			tab.AddHash(c, scr.hashes[i], 1, 0)
		}
		return reused
	case AggGroupRevenue:
		tab := a.groupTab(p)
		keys := b.rows.Col(a.spec.KeyRel)
		vals := b.rows.Col(a.spec.Rel)
		scr.ensure(len(keys))
		codes, meas := scr.codes[:0], scr.meas[:0]
		var reused int64
		if cc := b.codesFor(a.spec.KeyRel, a.spec.KeyCol); cc != nil {
			for i := range keys {
				if keys[i] < 0 || vals[i] < 0 {
					continue
				}
				codes = append(codes, int64(cc[i]))
				meas = append(meas, a.price[vals[i]]*(1-a.disc[vals[i]]))
			}
			reused = int64(len(keys))
		} else {
			dc := a.dict.codes
			for i := range keys {
				if keys[i] < 0 || vals[i] < 0 {
					continue
				}
				codes = append(codes, int64(dc[keys[i]]))
				meas = append(meas, a.price[vals[i]]*(1-a.disc[vals[i]]))
			}
		}
		scr.codes, scr.meas = codes, meas // keep the grown backing arrays
		scr.hashes = hashtab.HashVec(codes, scr.hashes)
		for i, c := range codes {
			tab.AddHash(c, scr.hashes[i], 0, meas[i])
		}
		return reused
	}
	a.fold(p, b.rows)
	return 0
}

// aggSink is the streaming-aggregation result sink: partials per (worker,
// spec), merged in finish. Above the breaker fan-out threshold the group
// merge is sharded by group hash and the shards merge in parallel, so
// high-cardinality GROUP BYs finish across DOP workers like the other
// breakers.
type aggSink struct {
	ex       *executor
	cols     []aggCols
	partials [][]aggPartial // [worker][spec]
	rowsSeen []int64        // per worker
	// scrs is the per-worker fold scratch, foldNanos / codeReused the
	// per-worker fold wall time and dictCode-channel hit counts, summed
	// into Phases.Fold and PipelineStat.FoldCodeReused at finish.
	scrs       []aggScratch
	foldNanos  []int64
	codeReused []int64
	ph         BreakerPhases
	res        *mem.Reservation
	est        int64 // bytes force-accounted at construction
}

const (
	// aggGroupBytes approximates one group entry's footprint — in a
	// partial table for the up-front estimate, in a result map (string
	// header, hash bucket share, value) for the final top-up.
	aggGroupBytes = 64
	// defaultAggEstGroups sizes the up-front reservation when a spec
	// carries no group-count estimate.
	defaultAggEstGroups = 1024
)

func (ex *executor) newAggSink(rels query.RelSet, workers int) (sink, error) {
	s := &aggSink{
		ex:         ex,
		partials:   make([][]aggPartial, workers),
		rowsSeen:   make([]int64, workers),
		scrs:       make([]aggScratch, workers),
		foldNanos:  make([]int64, workers),
		codeReused: make([]int64, workers),
	}
	for _, spec := range ex.aggSpecs {
		a, err := resolveAgg(ex.tables, spec, ex.groupDictFor)
		if err != nil {
			return nil, err
		}
		s.cols = append(s.cols, a)
	}
	for w := range s.partials {
		s.partials[w] = make([]aggPartial, len(s.cols))
	}
	// Broker-account the per-worker partial tables: Force (not Grow) because
	// the sink cannot spill yet, sized from the group-count estimate so
	// Used/Peak reporting is truthful for GROUP BY state. finish tops the
	// reservation up to the observed group count. This is the accounting
	// half of the ROADMAP's "spilling aggregation": the bytes reserved here
	// are exactly what a future spill path would bound.
	s.res = ex.memq.Reserve("agg partials")
	for _, a := range s.cols {
		if a.spec.Kind == AggGroupCount || a.spec.Kind == AggGroupRevenue {
			g := a.spec.EstGroups
			if g <= 0 {
				g = defaultAggEstGroups
			}
			s.est += int64(workers) * int64(g) * aggGroupBytes
		}
	}
	s.res.Force(s.est)
	return s, nil
}

// phases: the partial merge in finish is O(groups), not O(rows); its wall
// time is reported as the Merge phase.
func (s *aggSink) phases() BreakerPhases { return s.ph }

func (s *aggSink) consume(w int, b *Batch) {
	start := time.Now()
	s.rowsSeen[w] += int64(b.Len())
	for i := range s.cols {
		s.codeReused[w] += s.cols[i].foldBatch(&s.partials[w][i], b, &s.scrs[w])
	}
	s.foldNanos[w] += int64(time.Since(start))
}

func (s *aggSink) finish() error {
	start := time.Now()
	out := make([]AggValue, len(s.cols))
	for i := range s.cols {
		// Counts and Sums merge by integer addition, so the worker order
		// here — and which rows each worker happened to fold — cannot show
		// in the result.
		var merged aggPartial
		for w := range s.partials {
			p := &s.partials[w][i]
			merged.count += p.count
			merged.sum.Merge(p.sum)
		}
		merged.tab = s.mergeFlat(i, s.ex.dop)
		out[i] = s.cols[i].value(&merged)
	}
	s.ph.Merge = time.Since(start)
	for _, ns := range s.foldNanos {
		s.ph.Fold += time.Duration(ns)
	}
	// Top the reservation up to the observed state — exact directory
	// footprints for the partial tables, the aggGroupBytes approximation
	// for the merged result maps — so budget reports stay truthful when
	// the estimate ran low on a high-cardinality GROUP BY.
	var actual int64
	for w := range s.partials {
		for i := range s.partials[w] {
			actual += s.partials[w][i].tab.Bytes()
		}
	}
	for i := range out {
		actual += int64(len(out[i].Groups)+len(out[i].GroupSums)) * aggGroupBytes
	}
	if actual > s.est {
		s.res.Force(actual - s.est)
	}
	s.ex.aggs = out
	var rows int64
	for _, n := range s.rowsSeen {
		rows += n
	}
	s.ex.rows = int(rows)
	return nil
}

// mergeFlat merges spec i's per-worker flat group tables.
func (s *aggSink) mergeFlat(i, dop int) *hashtab.AggTable {
	tabs := make([]*hashtab.AggTable, len(s.partials))
	for w := range s.partials {
		tabs[w] = s.partials[w][i].tab
	}
	return mergeAggTables(tabs, dop)
}

// mergeAggTables merges per-worker flat group tables. Small merges stay
// serial; above the breaker fan-out threshold each of dop shard workers
// scans every table and folds its hash-share of the keys — scanning a
// flat directory is a contiguous array walk, so the redundant scans are
// cheaper than a shuffle. Either way each key's counts and sums add as
// integers, so the two paths give identical tables.
func mergeAggTables(parts []*hashtab.AggTable, dop int) *hashtab.AggTable {
	total := 0
	for _, t := range parts {
		total += t.Len()
	}
	if total == 0 {
		return nil
	}
	// Weight 8: one directory probe per group entry.
	if !parallelFinishThreshold(total, 8, dop) {
		out := hashtab.NewAgg(total)
		for _, t := range parts {
			t.Each(out.Merge)
		}
		return out
	}
	nsh := dop
	shards := make([]*hashtab.AggTable, nsh)
	parallelFor(nsh, func(sh int) {
		out := hashtab.NewAgg(total/nsh + 1)
		for _, t := range parts {
			t.Each(func(k, c int64, sum hashtab.Sum) {
				if int(hashtab.Hash(k)%uint64(nsh)) == sh {
					out.Merge(k, c, sum)
				}
			})
		}
		shards[sh] = out
	})
	out := hashtab.NewAgg(total)
	for _, t := range shards { // shards hold disjoint keys
		t.Each(out.Merge)
	}
	return out
}
