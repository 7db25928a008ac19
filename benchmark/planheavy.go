package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"time"

	"bfcbo/internal/optimizer"
)

// planWorkload is plan_heavy: no dataset and no execution. One operation is
// one optimizer.Optimize over a fresh block of a generated catalog-only
// join graph, so the optimizer (with cost, stats and catalog under it) is
// the only layer that can move the numbers.
type planWorkload struct {
	cfg    config
	graphs []*graph
	orders [][]int
	// nobfCost is each graph's NoBF estimated cost from set-up: the
	// reference BF-CBO's cost may not exceed (BF-Post's post pass adds
	// filters without re-costing, so its cost equals NoBF's).
	nobfCost []float64
}

// planSF is the scale the paper's heuristics thresholds are taken at: the
// generated graphs have SF-100-like row counts.
const planSF = 100

type planMode struct {
	key  string
	mode optimizer.Mode
	h7   int
}

var planModes = []planMode{
	{"nobf", optimizer.NoBF, 0},
	{"bfpost", optimizer.BFPost, 0},
	{"bfcbo", optimizer.BFCBO, 0},
	{"bfcbo_h7", optimizer.BFCBO, 4},
}

var planBFCBO = planModes[2]

func (m planMode) options() optimizer.Options {
	o := optimizer.DefaultOptions(planSF)
	o.Mode = m.mode
	o.Heuristics.H7MaxSubPlans = m.h7
	return o
}

func (w *planWorkload) setUp() error {
	w.graphs = genGraphs(w.cfg.seed)
	rng := rand.New(rand.NewPCG(w.cfg.seed, 0x0bde))
	for k := 0; k < orderCycles; k++ {
		w.orders = append(w.orders, rng.Perm(len(w.graphs)))
	}
	w.nobfCost = make([]float64, len(w.graphs))
	for i, g := range w.graphs {
		res, err := optimizer.Optimize(g.block(), planModes[0].options())
		if err != nil {
			return fmt.Errorf("reference %s: %w", g.name, err)
		}
		w.nobfCost[i] = res.Plan.Root.EstCost()
	}
	// Warm-up: one BF-CBO pass, checked like a measured one.
	p := w.pass(planBFCBO, 0, nil)
	if p.failed > 0 {
		return fmt.Errorf("warm-up: %v", p.problems)
	}
	return nil
}

func (w *planWorkload) close() {}

func (w *planWorkload) digest() string {
	h := fnv.New64a()
	for _, g := range w.graphs {
		fmt.Fprint(h, g.describe())
	}
	fmt.Fprint(h, w.orders)
	return fmt.Sprintf("%016x", h.Sum64())
}

// planPass is one pass over the 24 graphs in one mode.
type planPass struct {
	*samples
	results []*optimizer.Result // by graph index
}

// pass plans every graph once in the cycle-th order. The clock covers
// optimizer.Optimize alone; building the fresh block and checking the plan
// are the benchmark's work.
func (w *planWorkload) pass(m planMode, cycle int, tr *tracer) *planPass {
	p := &planPass{samples: newSamples(len(w.graphs), 1), results: make([]*optimizer.Result, len(w.graphs))}
	opts := m.options()
	passMS := 0.0
	passStart := time.Now()
	for _, gi := range w.orders[cycle%orderCycles] {
		g := w.graphs[gi]
		b := g.block()
		q := tr.newQuery()
		t0 := time.Now()
		res, err := optimizer.Optimize(b, opts)
		wall := time.Since(t0)
		root := tr.add(0, q, 0, g.name, layerOp, t0, time.Since(t0))
		tr.add(root, q, 0, "optimizer.Optimize", layerOptimize, t0, wall)
		passMS += ms(wall)
		if err == nil {
			err = w.check(gi, res)
		}
		p.record(gi, g.name, ms(wall), err)
		p.results[gi] = res
	}
	p.endPass([]float64{passMS}, time.Since(passStart))
	return p
}

// check holds a plan against the reference: it must cover every relation
// exactly once, and with Bloom filters in the search its estimated cost may
// not exceed plain CBO's (tolerance as in the optimizer's property test).
func (w *planWorkload) check(gi int, res *optimizer.Result) error {
	g := w.graphs[gi]
	scans := res.Plan.Scans()
	seen := make(map[int]bool, len(scans))
	for _, s := range scans {
		if seen[s.Rel] {
			return fmt.Errorf("relation %d scanned twice", s.Rel)
		}
		seen[s.Rel] = true
	}
	if len(seen) != len(g.tables) {
		return fmt.Errorf("plan covers %d of %d relations", len(seen), len(g.tables))
	}
	if c := res.Plan.Root.EstCost(); c > w.nobfCost[gi]*1.000001 {
		return fmt.Errorf("estimated cost %g exceeds NoBF's %g", c, w.nobfCost[gi])
	}
	return nil
}

func (w *planWorkload) measure(d time.Duration) (*samples, error) {
	return measurePasses(d, len(w.graphs), 1, func(cycle int) *samples {
		return w.pass(planBFCBO, cycle, nil).samples
	}), nil
}

// traced alternates untraced and span-recording BF-CBO passes with one pass
// in each other mode, until the time is up.
func (w *planWorkload) traced(d time.Duration, tr *tracer) (layerValues, *samples, error) {
	out := layerValues{}
	all := newSamples(len(w.graphs), 1)
	ser := series{}
	perOp := map[string][]float64{}
	var cnt counts
	deadline := time.Now().Add(d)
	for it := 0; it < 2 || time.Now().Before(deadline); it++ {
		spanTr := tr
		if it >= tracedSpanPasses {
			spanTr = nil
		}
		plain := func() {
			p := w.pass(planBFCBO, it, nil)
			all.merge(p.samples)
			ser.add("plain_pass_ms", p.passMS[0])
		}
		for _, m := range planModes {
			var p *planPass
			if m == planBFCBO {
				// The plain and the span-recording BF-CBO pass run back to
				// back and swap places every iteration.
				if it%2 == 0 {
					plain()
				}
				p = w.pass(m, it, spanTr)
				ser.add("staged_pass_ms", p.passMS[0])
				if it%2 == 1 {
					plain()
				}
			} else {
				p = w.pass(m, it, nil)
			}
			all.merge(p.samples)
			perOp[m.key] = append(perOp[m.key], p.walls()...)
			if m.key == "bfpost" {
				ser.add("optimizer.pass_ms_bfpost", p.passMS[0])
			}
			if m != planBFCBO {
				continue
			}
			pass := layerValues{}
			h := fnv.New32a()
			logRel := 0.0
			for gi, r := range p.results {
				if r == nil {
					continue
				}
				pass["optimizer.plans_kept"] += float64(r.PlansKept)
				pass["optimizer.candidates"] += float64(r.Candidates)
				pass["optimizer.phase1_pairs"] += float64(r.Phase1Pairs)
				pass["optimizer.blooms_planned"] += float64(r.Plan.CountBlooms())
				fmt.Fprint(h, r.Plan.JoinOrderSignature())
				logRel += math.Log(r.Plan.Root.EstCost() / w.nobfCost[gi])
			}
			pass["optimizer.join_order_digest"] = float64(h.Sum32())
			// plan_cost_rel: geometric mean over the graphs of BF-CBO's
			// estimated cost relative to NoBF's.
			pass["optimizer.plan_cost_rel"] = math.Exp(logRel / float64(len(p.results)))
			if err := cnt.check(pass); err != nil {
				return nil, nil, err
			}
			for k, v := range pass {
				ser.add(k, v)
			}
		}
	}
	ser.medians(out)
	for _, name := range exactCounts {
		out[name] = cnt.first[name]
	}
	for _, m := range planModes {
		out["optimizer.plan_us_p50."+m.key] = 1e3 * median(perOp[m.key])
	}
	out["optimizer.bfcbo_over_bfpost_plan_ratio"] = ratio(out["staged_pass_ms"], out["optimizer.pass_ms_bfpost"])
	out["trace.overhead_ratio"] = ratio(out["staged_pass_ms"], out["plain_pass_ms"])
	traceShares(tr, out)
	return out, all, nil
}
