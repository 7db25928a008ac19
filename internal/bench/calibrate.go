package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"bfcbo/internal/cost"
	"bfcbo/internal/exec"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/tpch"
)

// maxBuildShare is the calibration claim: planned for the executor it runs
// on, the suite under BF-Post inserts at most this share of the hash-build
// rows it inserts when planned for the paper's machine. BF-Post, because its
// join order is plain cost-based optimization's and the orientation of
// those joins is what a profile decides; BF-CBO under the paper profile
// already flips many joins onto their small side to earn a Bloom filter
// (the paper's result), by how much depending on scale (0.18 of BF-Post's
// build rows at SF 0.005, 0.99 at SF 0.2, where the scaled Heuristic 5
// prunes those filters) — of it the claim is only that the engine profile
// never builds more.
const maxBuildShare = 0.6

// joinTerm pairs what the planner charged one hash join with what the join
// then did.
type joinTerm struct {
	// est is the join's own estimated cost term: its cumulative cost less
	// its inputs'.
	est float64
	// work is the join's observed build and probe rows priced at the
	// engine profile's per-row constants — the microbenchmark's figures.
	work float64
}

// CalibCell is one TPC-H block planned under one cost profile in one mode,
// and run.
type CalibCell struct {
	EstCost float64
	Rows    int
	Work    exec.Work
	// BuildSides lists, top-down, the build side of every hash join with
	// the rows it held, and for a semi, anti or left join which side that
	// is, e.g. "(o c):7253 n:25 o:574[right semi]".
	BuildSides string
	// UnitBuild and UnitProbe total the rows built and the keys probed by
	// the cell's semi, anti and left hash joins: the joins whose build side
	// the planner chooses by orientation, not by join order.
	UnitBuild, UnitProbe int64
	Exec                 time.Duration
	joins                []joinTerm
}

// CalibPair is one block under one profile: both Bloom-filter modes.
type CalibPair struct{ Post, CBO CalibCell }

// CalibRow is one block under both profiles.
type CalibRow struct {
	Query int
	// CompositeKey marks a block that joins some relation pair on two or
	// more columns (Q9's lineitem ⋈ partsupp). The planner estimates each
	// single-column filter there as if its column alone were the key and
	// overstates the reduction, so BF-CBO can pick a plan that probes more
	// keys than BF-Post's; the probe claim leaves such blocks out and the
	// report shows them apart.
	CompositeKey  bool
	Paper, Engine CalibPair
}

// Calibration plans and runs the 22 TPC-H blocks under both cost profiles
// × {BF-Post, BF-CBO}: what the engine profile is held against.
type Calibration struct {
	Rows []CalibRow
}

// RunCalibration runs every block in all four configurations: the paper
// profile's as the reproduction plans (optimizer.PaperOptions), the engine
// profile's as the engine plans (optimizer.DefaultOptions) — its cost
// constants and its Heuristic 5 alike.
func (h *Harness) RunCalibration() (*Calibration, error) {
	c := &Calibration{}
	for _, q := range tpch.All() {
		row := CalibRow{Query: q.Num, CompositeKey: compositeKeyJoin(q.Build(h.ds.Schema))}
		for _, p := range []struct {
			options func(scaleFactor float64) optimizer.Options
			pair    *CalibPair
		}{{optimizer.PaperOptions, &row.Paper}, {optimizer.DefaultOptions, &row.Engine}} {
			for _, m := range []struct {
				mode optimizer.Mode
				cell *CalibCell
			}{{optimizer.BFPost, &p.pair.Post}, {optimizer.BFCBO, &p.pair.CBO}} {
				opts := h.optionsFrom(p.options, m.mode)
				qr, err := h.runQuery(q.Num, opts)
				if err != nil {
					return nil, fmt.Errorf("bench: calibrate (%s profile): %w", opts.Cost.Name, err)
				}
				*m.cell = calibCell(qr)
			}
		}
		c.Rows = append(c.Rows, row)
	}
	return c, nil
}

// compositeKeyJoin reports whether b joins some relation pair on two or
// more inner equi-join clauses of its own (not derived by transitivity).
func compositeKeyJoin(b *query.Block) bool {
	clauses := make(map[query.RelSet]int)
	for _, c := range b.Clauses {
		if c.Type == query.Inner && !c.Derived {
			clauses[c.Rels()]++
			if clauses[c.Rels()] == 2 {
				return true
			}
		}
	}
	return false
}

func calibCell(qr *QueryRun) CalibCell {
	cell := CalibCell{EstCost: qr.EstCost, Rows: qr.OutputRows, Work: qr.Actuals.Work, Exec: qr.ExecTime}
	engine := cost.Engine()
	var sides []string
	for _, j := range qr.Plan.Joins() {
		build, probe := qr.Actuals.ActualFor(j.Inner), qr.Actuals.ActualFor(j.Outer)
		side := fmt.Sprintf("%s:%.0f", orderSig(j.Inner), build)
		if j.JoinType != query.Inner {
			side += "[" + j.Kind() + "]"
			cell.UnitBuild += int64(build)
			cell.UnitProbe += int64(probe)
		}
		sides = append(sides, side)
		cell.joins = append(cell.joins, joinTerm{
			est:  j.Cost - j.Outer.EstCost() - j.Inner.EstCost(),
			work: build*engine.HashBuildCost + probe*engine.HashProbeCost,
		})
	}
	cell.BuildSides = strings.Join(sides, " ")
	return cell
}

// orderSig is plan.Plan.JoinOrderSignature for a subtree.
func orderSig(n plan.Node) string { return (&plan.Plan{Root: n}).JoinOrderSignature() }

// calibConfig is one of a row's four cells with its labels.
type calibConfig struct {
	profile, mode string
	cell          *CalibCell
}

// cells addresses the four configurations in print order.
func (r *CalibRow) cells() [4]calibConfig {
	return [4]calibConfig{
		{"paper", "BF-Post", &r.Paper.Post}, {"paper", "BF-CBO", &r.Paper.CBO},
		{"engine", "BF-Post", &r.Engine.Post}, {"engine", "BF-CBO", &r.Engine.CBO},
	}
}

// Check states what calibrating the cost model is for, in exact counts: the
// engine profile moves hash-build work off the large inputs (under BF-Post
// the suite inserts at most maxBuildShare of the paper profile's build
// rows, under BF-CBO no more than it) — off the subquery sides of semi, anti
// and left joins too, whose build side is a choice of orientation: summed
// over those joins the engine profile builds no more rows than it probes
// with — a profile changes plans and never answers, under either profile
// searching with Bloom filters is never costlier than adding them afterwards,
// and under the engine profile BF-CBO's filters leave the hash joins no more
// keys to probe than BF-Post's, summed over the blocks without a
// composite-key join (see CalibRow.CompositeKey).
func (c *Calibration) Check() error {
	var errs []error
	var paper, engine struct{ post, cbo int64 }
	var engineProbe struct{ post, cbo int64 }
	var unitBuild, unitProbe [2]int64 // engine profile: BF-Post, BF-CBO
	for i := range c.Rows {
		r := &c.Rows[i]
		for _, x := range r.cells() {
			if x.cell.Rows != r.Paper.Post.Rows {
				errs = append(errs, fmt.Errorf("same answer: Q%d returns %d rows under %s/%s, %d under paper/BF-Post",
					r.Query, x.cell.Rows, x.profile, x.mode, r.Paper.Post.Rows))
			}
		}
		cells := r.cells()
		for k := 0; k < len(cells); k += 2 {
			if post, cbo := cells[k], cells[k+1]; cbo.cell.EstCost > post.cell.EstCost {
				errs = append(errs, fmt.Errorf("plan cost (%s profile): Q%d BF-CBO est. cost %.6g above BF-Post's %.6g",
					cbo.profile, r.Query, cbo.cell.EstCost, post.cell.EstCost))
			}
		}
		paper.post += r.Paper.Post.Work.Build
		paper.cbo += r.Paper.CBO.Work.Build
		engine.post += r.Engine.Post.Work.Build
		engine.cbo += r.Engine.CBO.Work.Build
		if !r.CompositeKey {
			engineProbe.post += r.Engine.Post.Work.Probe
			engineProbe.cbo += r.Engine.CBO.Work.Probe
		}
		for k, cell := range []*CalibCell{&r.Engine.Post, &r.Engine.CBO} {
			unitBuild[k] += cell.UnitBuild
			unitProbe[k] += cell.UnitProbe
		}
	}
	for k, mode := range []string{"BF-Post", "BF-CBO"} {
		if unitBuild[k] > unitProbe[k] {
			errs = append(errs, fmt.Errorf("build side of semi/anti/left joins: under the engine profile %s builds %d rows to probe with %d keys",
				mode, unitBuild[k], unitProbe[k]))
		}
	}
	if float64(engine.post) > maxBuildShare*float64(paper.post) {
		errs = append(errs, fmt.Errorf("build work: BF-Post builds %d rows under the engine profile, above %.0f%% of the paper profile's %d",
			engine.post, 100*maxBuildShare, paper.post))
	}
	if engine.cbo > paper.cbo {
		errs = append(errs, fmt.Errorf("build work: BF-CBO builds %d rows under the engine profile, above the paper profile's %d",
			engine.cbo, paper.cbo))
	}
	if engineProbe.cbo > engineProbe.post {
		errs = append(errs, fmt.Errorf("probe work: under the engine profile BF-CBO probes %d keys, above BF-Post's %d, on the blocks without a composite-key join",
			engineProbe.cbo, engineProbe.post))
	}
	return errors.Join(errs...)
}

// Print renders one line per (block, profile, mode), the blocks whose
// BF-CBO build sides the engine profile changes, per-configuration totals
// with the rank correlation between what the planner charged each hash join
// and what the join did, and the probe claim's ratio beside the
// composite-key blocks' own.
func (c *Calibration) Print(w io.Writer) {
	fmt.Fprintf(w, "calibrate — TPC-H blocks under both cost profiles; work in rows, rho = Spearman(est. join cost term, build×%g + probe×%g)\n",
		cost.Engine().HashBuildCost, cost.Engine().HashProbeCost)
	fmt.Fprintf(w, "%-4s %-7s %-8s %10s %10s %10s %10s %12s %9s %6s  %s\n",
		"Q#", "profile", "mode", "build", "probe", "tested", "scanned", "est-cost", "exec-ms", "rho", "hash build sides (rows)")
	type total struct {
		work                 exec.Work
		unitBuild, unitProbe int64
		exec                 time.Duration
		joins                []joinTerm
	}
	var totals [4]total
	var flipped, composite []string
	var probe [2]struct{ post, cbo int64 } // engine profile: without, with a composite-key join
	for i := range c.Rows {
		r := &c.Rows[i]
		k := 0
		if r.CompositeKey {
			k = 1
			composite = append(composite, fmt.Sprintf("Q%d", r.Query))
		}
		probe[k].post += r.Engine.Post.Work.Probe
		probe[k].cbo += r.Engine.CBO.Work.Probe
		for k, x := range r.cells() {
			fmt.Fprintf(w, "%-4d %-7s %-8s %10d %10d %10d %10d %12.6g %9.2f %6s  %s\n",
				r.Query, x.profile, x.mode, x.cell.Work.Build, x.cell.Work.Probe, x.cell.Work.Tested, x.cell.Work.Scanned,
				x.cell.EstCost, x.cell.Exec.Seconds()*1000, rhoString(x.cell.joins), x.cell.BuildSides)
			totals[k].work = totals[k].work.Add(x.cell.Work)
			totals[k].unitBuild += x.cell.UnitBuild
			totals[k].unitProbe += x.cell.UnitProbe
			totals[k].exec += x.cell.Exec
			totals[k].joins = append(totals[k].joins, x.cell.joins...)
		}
		if r.Paper.CBO.BuildSides != r.Engine.CBO.BuildSides {
			flipped = append(flipped, fmt.Sprintf("Q%d", r.Query))
		}
	}
	if len(c.Rows) == 0 {
		return
	}
	for k, x := range c.Rows[0].cells() {
		t := totals[k]
		fmt.Fprintf(w, "%-4s %-7s %-8s %10d %10d %10d %10d %12s %9.2f %6s\n",
			"tot", x.profile, x.mode, t.work.Build, t.work.Probe, t.work.Tested, t.work.Scanned, "", t.exec.Seconds()*1000, rhoString(t.joins))
	}
	fmt.Fprintf(w, "BF-CBO build sides differ between profiles on %d blocks: %s\n", len(flipped), strings.Join(flipped, " "))
	for k, name := range []string{"paper", "engine"} {
		post, cbo := totals[2*k], totals[2*k+1]
		fmt.Fprintf(w, "%s profile, BF-CBO ÷ BF-Post: build rows %.3f, probe keys %.3f, exec time %.3f\n", name,
			float64(cbo.work.Build)/float64(post.work.Build), float64(cbo.work.Probe)/float64(post.work.Probe),
			cbo.exec.Seconds()/post.exec.Seconds())
		claim := ""
		if name == "engine" {
			claim = " (claim: build <= probe)"
		}
		fmt.Fprintf(w, "%s profile, semi/anti/left joins: BF-Post builds %d rows to probe %d keys, BF-CBO %d to probe %d%s\n", name,
			post.unitBuild, post.unitProbe, cbo.unitBuild, cbo.unitProbe, claim)
	}
	fmt.Fprintf(w, "engine profile, BF-CBO ÷ BF-Post probe keys: %.3f on the blocks without a composite-key join (claim: <= 1), %.3f on %s\n",
		float64(probe[0].cbo)/float64(probe[0].post), float64(probe[1].cbo)/float64(probe[1].post), strings.Join(composite, " "))
	for k, m := range []struct {
		mode  string
		claim float64
	}{{"BF-Post", maxBuildShare}, {"BF-CBO", 1}} {
		p, e := totals[k], totals[2+k]
		fmt.Fprintf(w, "engine ÷ paper profile, %s: build rows %.3f (claim: <= %.2f), exec time %.3f\n",
			m.mode, float64(e.work.Build)/float64(p.work.Build), m.claim, e.exec.Seconds()/p.exec.Seconds())
	}
}

// rhoString renders the rank correlation over a set of joins; fewer than
// three joins rank trivially.
func rhoString(js []joinTerm) string {
	if len(js) < 3 {
		return "-"
	}
	est, work := make([]float64, len(js)), make([]float64, len(js))
	for i, j := range js {
		est[i], work[i] = j.est, j.work
	}
	return fmt.Sprintf("%.2f", spearman(est, work))
}

// spearman is the Spearman rank correlation of two equally long samples:
// the Pearson correlation of their ranks, ties sharing their mean rank.
func spearman(x, y []float64) float64 {
	rx, ry := ranks(x), ranks(y)
	n := float64(len(x))
	var sx, sy float64
	for i := range rx {
		sx += rx[i]
		sy += ry[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range rx {
		cov += (rx[i] - mx) * (ry[i] - my)
		vx += (rx[i] - mx) * (rx[i] - mx)
		vy += (ry[i] - my) * (ry[i] - my)
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	r := make([]float64, len(v))
	for lo := 0; lo < len(idx); {
		hi := lo
		for hi < len(idx) && v[idx[hi]] == v[idx[lo]] {
			hi++
		}
		for k := lo; k < hi; k++ {
			r[idx[k]] = float64(lo+hi-1)/2 + 1
		}
		lo = hi
	}
	return r
}
