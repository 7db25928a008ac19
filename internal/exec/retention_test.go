package exec

import (
	"testing"

	"bfcbo/internal/mem"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/tpch"
)

// The batch-retention suite: a batch belongs to its producer until the next
// NextBatch call (PhysicalOperator's ownership rule), and the scan, the
// probe and the grace drain all hand out memory they overwrite on that
// call. poisonOp makes the overwrite unconditional: when its consumer asks
// for the next batch, it first sets every row id of the batch it handed
// out before to -1. A hash build, route sink or probe that kept a batch
// past the next call then returns wrong tuples or fails. (The result sink
// keeps nothing; runRows copies each result batch before the next call.)

// poisonOp passes its child's batches through, poisoning each one as the
// next is requested.
type poisonOp struct {
	child PhysicalOperator
	last  *RowSet
}

func (o *poisonOp) Open() error  { return o.child.Open() }
func (o *poisonOp) Close() error { return o.child.Close() }
func (o *poisonOp) NextBatch() (*RowSet, error) {
	if o.last != nil {
		for _, col := range o.last.cols {
			for i := range col {
				col[i] = -1
			}
		}
	}
	b, err := o.child.NextBatch()
	o.last = b
	return b, err
}

// poisonChain is an injectOp hook that puts a poisonOp on every edge of a
// worker's chain: above each probe's input and above the chain's top, which
// feeds the sink.
func poisonChain(_ *plan.Pipeline, _ int, _ bool, op PhysicalOperator) PhysicalOperator {
	for p, ok := op.(*probeOp); ok; {
		child := p.child
		p.child = &poisonOp{child: child}
		p, ok = child.(*probeOp)
	}
	return &poisonOp{child: op}
}

func TestBatchRetention(t *testing.T) {
	ds := equivalenceDataset(t)
	opts := optimizer.DefaultOptions(0.01)
	opts.Mode = optimizer.BFCBO
	for _, q := range tpch.All() {
		block := q.Build(ds.Schema)
		res, err := optimizer.Optimize(block, opts)
		if err != nil {
			t.Fatalf("Q%d: optimize: %v", q.Num, err)
		}
		_, ref, err := runRows(ds.DB, block, res.Plan, Options{Legacy: true})
		if err != nil {
			t.Fatalf("Q%d: reference: %v", q.Num, err)
		}
		want := canonicalRows(ref)
		for _, dop := range []int{1, 4} {
			for _, budget := range []int64{0, tinyBudget} {
				r, rows, err := runRows(ds.DB, block, res.Plan, Options{
					DOP: dop, Broker: mem.NewBroker(budget), SpillDir: t.TempDir(),
					injectOp: poisonChain,
				})
				if err != nil {
					t.Fatalf("Q%d dop %d budget %d: %v", q.Num, dop, budget, err)
				}
				if budget > 0 && len(res.Plan.Joins()) > 0 && !r.TotalSpill().Spilled() {
					t.Errorf("Q%d dop %d: the tiny budget sent no build through grace", q.Num, dop)
				}
				got := canonicalRows(rows)
				if len(got) != len(want) {
					t.Errorf("Q%d dop %d budget %d: %d tuples, the reference has %d", q.Num, dop, budget, len(got), len(want))
					continue
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("Q%d dop %d budget %d: tuple %d = %s, the reference has %s", q.Num, dop, budget, i, got[i], want[i])
						break
					}
				}
			}
		}
	}
}
