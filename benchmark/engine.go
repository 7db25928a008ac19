package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"bfcbo"
	"bfcbo/internal/exec"
	"bfcbo/internal/obs"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/sqlparser"
)

// engineWorkload is the shape the three dataset workloads share: a pool of
// operations (TPC-H blocks or SQL statements), one bfcbo.Engine, and
// closed-loop clients that each replay the pool in their own seeded orders.
// tpch_power and tpch_spill run one client over TPC-H blocks; sql_streams
// runs cfg.clients clients over generated statements.
type engineWorkload struct {
	cfg       config
	memBudget int64
	clients   int
	sql       bool  // ops are SQL statements, not TPC-H blocks
	tpch      []int // TPC-H block numbers when !sql

	ops      []engineOp
	orders   [][][]int // [client][cycle] -> permutation of op indices
	eng      *bfcbo.Engine
	spillDir string
	metrics  *obs.Metrics

	openS       float64 // bfcbo.Open wall of the last set-up
	firstPassMS float64 // the warm-up pass, which builds the lazy caches
}

type engineOp struct {
	name string
	sql  string
	tpch int
	want int // reference row count from the legacy interpreter
}

// orderCycles is how many seeded permutations each client cycles through.
const orderCycles = 8

// spillBlocks are the join- and sort-heavy TPC-H blocks tpch_spill runs.
var spillBlocks = []int{3, 5, 7, 8, 9, 10, 18, 21}

// spillBudgetAtSF02 is tpch_spill's memory budget at SF 0.2, about a sixth
// of the unlimited run's 101 MB broker peak; it scales with the dataset. One
// pass then writes and re-reads about 11 MB in 128 partition files through
// two levels of grace recursion. A tighter budget spills more but measures
// the file system instead: at 4 MiB a pass creates and unlinks 2 300 files,
// kernel time equals user time, and on ext4 the pass wall drifts threefold
// between back-to-back runs (README, "tpch_spill").
const spillBudgetAtSF02 = 16 << 20

func newEngineWorkload(cfg config) *engineWorkload {
	w := &engineWorkload{cfg: cfg, clients: 1}
	switch cfg.workload {
	case "tpch_power":
		for q := 1; q <= 22; q++ {
			w.tpch = append(w.tpch, q)
		}
	case "tpch_spill":
		w.tpch = spillBlocks
		w.memBudget = int64(spillBudgetAtSF02 * cfg.sf() / 0.2)
	case "sql_streams":
		w.sql = true
		w.clients = cfg.clients
	}
	return w
}

func (w *engineWorkload) setUp() error {
	if w.sql {
		for i, s := range genStatements(w.cfg.seed) {
			w.ops = append(w.ops, engineOp{name: fmt.Sprintf("s%03d", i), sql: s})
		}
	} else {
		for _, q := range w.tpch {
			w.ops = append(w.ops, engineOp{name: fmt.Sprintf("q%d", q), tpch: q})
		}
	}
	rng := rand.New(rand.NewPCG(w.cfg.seed, 0x0bde))
	w.orders = make([][][]int, w.clients)
	for c := range w.orders {
		for k := 0; k < orderCycles; k++ {
			w.orders[c] = append(w.orders[c], rng.Perm(len(w.ops)))
		}
	}

	ecfg := bfcbo.Config{ScaleFactor: w.cfg.sf(), Seed: w.cfg.dataSeed, DOP: w.cfg.clients, MemBudget: w.memBudget}
	if w.memBudget > 0 {
		dir, err := os.MkdirTemp(w.cfg.outDir, "spill-")
		if err != nil {
			return err
		}
		w.spillDir, ecfg.SpillDir = dir, dir
	}
	t0 := time.Now()
	eng, err := bfcbo.Open(ecfg)
	if err != nil {
		return err
	}
	w.openS = time.Since(t0).Seconds()
	w.eng = eng
	w.metrics = obs.NewMetrics(eng.MetricsRegistry())

	if err := w.reference(); err != nil {
		return err
	}
	// One warm-up pass builds the lazy dictionaries and zone maps and
	// checks every operation once before anything is timed.
	t0 = time.Now()
	for i := range w.ops {
		if _, _, err := w.runOp(w.eng, &w.ops[i], bfcbo.BFCBO); err != nil {
			return fmt.Errorf("warm-up %s: %w", w.ops[i].name, err)
		}
	}
	w.firstPassMS = ms(time.Since(t0))
	return nil
}

// block builds the operation's query block: the generator's output the
// engine receives. For SQL operations the engine parses the text itself.
func (w *engineWorkload) block(op *engineOp) (*query.Block, error) {
	if op.sql != "" {
		return w.eng.ParseSQL(op.sql)
	}
	return w.eng.TPCH(op.tpch)
}

// reference computes every operation's row count with the legacy
// materializing interpreter over a NoBF plan at DOP 1. It shares no kernel
// with the default executor, which is what makes it an oracle.
func (w *engineWorkload) reference() error {
	errs := make([]error, len(w.ops))
	var wg sync.WaitGroup
	for c := 0; c < w.cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(w.ops); i += w.cfg.clients {
				errs[i] = w.referenceOp(&w.ops[i])
			}
		}()
	}
	wg.Wait()
	empty := 0
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("reference %s: %w", w.ops[i].name, err)
		}
		if w.ops[i].want == 0 {
			empty++
		}
	}
	if w.sql && 4*empty > len(w.ops) {
		return fmt.Errorf("%d of %d pooled statements return no rows", empty, len(w.ops))
	}
	return nil
}

func (w *engineWorkload) referenceOp(op *engineOp) error {
	b, err := w.block(op)
	if err != nil {
		return err
	}
	res, err := w.eng.Plan(b, bfcbo.NoBF)
	if err != nil {
		return err
	}
	r, err := exec.Run(w.eng.Dataset().DB, b, res.Plan, exec.Options{Legacy: true, DOP: 1})
	if err != nil {
		return err
	}
	op.want = r.Rows
	return nil
}

func (w *engineWorkload) close() {
	if w.spillDir != "" {
		_ = os.RemoveAll(w.spillDir) // scratch files only; nothing to recover
	}
}

func (w *engineWorkload) digest() string {
	h := fnv.New64a()
	for _, op := range w.ops {
		fmt.Fprintf(h, "%s|%s\n", op.name, op.sql)
	}
	fmt.Fprint(h, w.orders)
	return fmt.Sprintf("%016x", h.Sum64())
}

// runOp runs one operation through the engine's front door — RunSQLContext
// or RunContext, plan plus execute — and checks the row count. The block
// of a TPC-H operation is built before the clock starts: it is the
// generator's output, not the engine's work.
func (w *engineWorkload) runOp(eng *bfcbo.Engine, op *engineOp, mode bfcbo.Mode) (time.Duration, *bfcbo.Output, error) {
	var out *bfcbo.Output
	var err error
	var t0 time.Time
	if op.sql != "" {
		t0 = time.Now()
		out, err = eng.RunSQLContext(context.Background(), op.sql, mode)
	} else {
		var b *query.Block
		if b, err = eng.TPCH(op.tpch); err != nil {
			return 0, nil, err
		}
		t0 = time.Now()
		out, err = eng.RunContext(context.Background(), b, mode)
	}
	wall := time.Since(t0)
	if err == nil && out.Rows != op.want {
		err = fmt.Errorf("%d rows, reference %d", out.Rows, op.want)
	}
	return wall, out, err
}

// enginePass is what one pass of every client produced.
type enginePass struct {
	*samples               // passMS holds one entry per client
	spilled  int64         // bytes written to spill files
	elapsed  time.Duration // first client's start to last client's end
}

// runClients runs one pass: every client replays its cycle-th seeded order,
// side by side and closed-loop, calling do for each operation, and the pass
// ends when the last client has. The next pass starts them together again:
// the clients finish within a few per cent of each other, and the host probe
// between passes needs them idle.
func (w *engineWorkload) runClients(cycle int, do func(client, opIdx int) (time.Duration, int64, error)) *enginePass {
	p := &enginePass{samples: newSamples(len(w.ops), w.clients)}
	clientMS := make([]float64, w.clients)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, oi := range w.orders[c][cycle%orderCycles] {
				wall, spilled, err := do(c, oi)
				clientMS[c] += ms(wall)
				mu.Lock()
				p.record(oi, w.ops[oi].name, ms(wall), err)
				p.spilled += spilled
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.endPass(clientMS, p.elapsed)
	return p
}

// enginePassOf runs one pass through eng's front door in the given mode.
func (w *engineWorkload) enginePassOf(eng *bfcbo.Engine, mode bfcbo.Mode, cycle int) *enginePass {
	return w.runClients(cycle, func(_, oi int) (time.Duration, int64, error) {
		wall, out, err := w.runOp(eng, &w.ops[oi], mode)
		if err != nil {
			return wall, 0, err
		}
		return wall, out.Spill.Bytes, nil
	})
}

// measure is the untraced run: passes through the engine's front door under
// BF-CBO until the time is up.
func (w *engineWorkload) measure(d time.Duration) (*samples, error) {
	var spilled int64
	all := measurePasses(d, len(w.ops), w.clients, func(cycle int) *samples {
		p := w.enginePassOf(w.eng, bfcbo.BFCBO, cycle)
		spilled += p.spilled
		return p.samples
	})
	if err := w.checkSpill(spilled); err != nil {
		return nil, err
	}
	return all, nil
}

// checkSpill is tpch_spill's guard rail: a run that never spilled did not
// measure the spill path.
func (w *engineWorkload) checkSpill(spilled int64) error {
	if w.memBudget > 0 && spilled == 0 {
		return fmt.Errorf("%s spilled 0 bytes under a %d-byte budget", w.cfg.workload, w.memBudget)
	}
	return nil
}

// stagedOp is one operation run in staged form: the benchmark itself calls
// each layer's entry point in the order Engine.RunSQLContext does, with the
// engine's own broker, scheduler, inspector and metrics, and times each
// call.
type stagedOp struct {
	wall                                 time.Duration
	parse, optimize, fingerprint, decomp time.Duration
	run                                  time.Duration
	plan                                 *optimizer.Result
	res                                  *exec.Result
	pipelines                            int
}

// layers is the summed wall of the staged layer calls; the root span's
// remainder is the benchmark's own glue between them.
func (s *stagedOp) layers() time.Duration {
	return s.parse + s.optimize + s.fingerprint + s.decomp + s.run
}

func (w *engineWorkload) staged(tr *tracer, client int, op *engineOp, mode bfcbo.Mode) (*stagedOp, error) {
	s := &stagedOp{}
	q := tr.newQuery()
	var b *query.Block
	var err error
	if op.sql == "" {
		if b, err = w.eng.TPCH(op.tpch); err != nil {
			return nil, err
		}
	}
	// Child spans are recorded before their root (which needs its final
	// duration), so the root's id is reserved up front.
	root := tr.add(0, q, client, op.name, layerOp, time.Time{}, 0)
	start := time.Now()

	if op.sql != "" {
		t0 := time.Now()
		b, err = sqlparser.Parse(w.eng.Dataset().Schema, op.sql)
		s.parse = time.Since(t0)
		tr.add(root, q, client, "sqlparser.Parse", layerParse, t0, s.parse)
		if err != nil {
			return nil, err
		}
	}

	opts := optimizer.DefaultOptions(w.cfg.sf())
	opts.Mode = mode
	t0 := time.Now()
	s.plan, err = optimizer.Optimize(b, opts)
	s.optimize = time.Since(t0)
	tr.add(root, q, client, "optimizer.Optimize", layerOptimize, t0, s.optimize)
	if err != nil {
		return nil, err
	}

	t0 = time.Now()
	fp := plan.Fingerprint(b, s.plan.Plan)
	s.fingerprint = time.Since(t0)
	tr.add(root, q, client, "plan.Fingerprint", layerPlan, t0, s.fingerprint)

	t0 = time.Now()
	pipes, err := plan.Decompose(s.plan.Plan)
	s.decomp = time.Since(t0)
	tr.add(root, q, client, "plan.Decompose", layerPlan, t0, s.decomp)
	if err != nil {
		return nil, err
	}
	s.pipelines = len(pipes)

	et := obs.NewTrace(8)
	t0 = time.Now()
	s.res, err = exec.RunContext(context.Background(), w.eng.Dataset().DB, b, s.plan.Plan, exec.Options{
		DOP: w.cfg.clients, Broker: w.eng.MemoryBroker(), SpillDir: w.spillDir,
		Sched: w.eng.Scheduler(), Metrics: w.metrics, Trace: et,
		Inspector: w.eng.Inspector(), Fingerprint: fp,
	})
	s.run = time.Since(t0)
	tr.attachExec(tr.add(root, q, client, "exec.RunContext", layerExec, t0, s.run), q, client, et)

	s.wall = time.Since(start)
	tr.setSpan(root, start, s.wall)
	if err != nil {
		return s, err
	}
	if s.res.Rows != op.want {
		return s, fmt.Errorf("%d rows, reference %d", s.res.Rows, op.want)
	}
	return s, nil
}
