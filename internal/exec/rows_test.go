package exec

import (
	"context"
	"fmt"
	"sync"

	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
)

// runRows is Run that also returns the run's output rows, for the tests
// that compare tuples: a run counts its rows and keeps none. A reference
// run's rows are the row set its root evaluates to (runReference). An
// engine run's are copied from every batch its result pipeline's last stage
// hands the result sink, captured through the injectOp hook above any hook
// opts already sets; batches are the producer's scratch, so each is copied
// before the sink sees it.
func runRows(db *storage.Database, block *query.Block, p *plan.Plan, opts Options) (*Result, *RowSet, error) {
	return runRowsContext(context.Background(), db, block, p, opts)
}

// runRowsContext is runRows under ctx (RunContext).
func runRowsContext(ctx context.Context, db *storage.Database, block *query.Block, p *plan.Plan, opts Options) (*Result, *RowSet, error) {
	if opts.Legacy {
		return runReference(ctx, db, block, p)
	}
	rows := &capturedRows{out: NewRowSet(p.Root.Rels())}
	hook := opts.injectOp
	opts.injectOp = func(pl *plan.Pipeline, w int, last bool, op PhysicalOperator) PhysicalOperator {
		if hook != nil {
			op = hook(pl, w, last, op)
		}
		if !last || pl.Sink != plan.SinkResult {
			return op
		}
		return &captureOp{PhysicalOperator: op, rows: rows}
	}
	r, err := RunContext(ctx, db, block, p, opts)
	if err != nil {
		return nil, nil, err
	}
	return r, rows.out, nil
}

// capturedRows collects the batches every worker's captureOp hands on.
type capturedRows struct {
	mu  sync.Mutex
	out *RowSet
}

// captureOp copies each batch its chain returns into rows.
type captureOp struct {
	PhysicalOperator
	rows *capturedRows
}

func (c *captureOp) NextBatch() (*RowSet, error) {
	b, err := c.PhysicalOperator.NextBatch()
	if b != nil {
		if b.rels != c.rows.out.rels {
			panic(fmt.Sprintf("exec: result batch covers %s, the plan's root %s", b.rels, c.rows.out.rels))
		}
		c.rows.mu.Lock()
		c.rows.out.appendBatch(b)
		c.rows.mu.Unlock()
	}
	return b, err
}
