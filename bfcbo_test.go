package bfcbo

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func engine(t *testing.T) *Engine {
	t.Helper()
	e, err := Open(Config{ScaleFactor: 0.003, Seed: 9, DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("zero scale factor should fail")
	}
	if _, err := Open(Config{ScaleFactor: -1}); err == nil {
		t.Fatal("negative scale factor should fail")
	}
}

func TestRunSQLAllModes(t *testing.T) {
	e := engine(t)
	sql := `SELECT * FROM orders o, lineitem l
	        WHERE o.o_orderkey = l.l_orderkey
	          AND l.l_shipmode IN ('MAIL','SHIP')
	          AND l.l_receiptdate BETWEEN DATE '1994-01-01' AND DATE '1994-12-31'`
	var rows int
	for i, mode := range []Mode{NoBF, BFPost, BFCBO} {
		out, err := e.RunSQL(sql, mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if i == 0 {
			rows = out.Rows
		} else if out.Rows != rows {
			t.Fatalf("%s changed results: %d vs %d", mode, out.Rows, rows)
		}
		if out.Explain() == "" || out.JoinOrder == "" {
			t.Fatalf("%s: empty explain output", mode)
		}
	}
}

func TestTPCHAccess(t *testing.T) {
	e := engine(t)
	b, err := e.TPCH(12)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(b, BFCBO)
	if err != nil {
		t.Fatal(err)
	}
	if out.Blooms == 0 {
		t.Fatalf("Q12 under BF-CBO should use Bloom filters:\n%s", out.Explain())
	}
	if len(out.BloomStats) == 0 {
		t.Fatal("missing bloom runtime stats")
	}
	if !strings.Contains(out.Explain(), "BF#") {
		t.Fatalf("explain lacks Bloom annotations:\n%s", out.Explain())
	}
	if _, err := e.TPCH(23); err == nil {
		t.Fatal("TPCH(23) should fail")
	}
}

// TestConcurrentEngineRuns drives one Engine from several goroutines
// through RunContext: every stream must match the serial row count, the
// scheduler must drain, the Sched report must carry slot occupancy, and
// the flight recorder renders recorded runs while others finish.
func TestConcurrentEngineRuns(t *testing.T) {
	e, err := Open(Config{ScaleFactor: 0.003, Seed: 9, DOP: 4, MaxConcurrent: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.TPCH(12)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := e.Run(b, BFCBO)
	if err != nil {
		t.Fatal(err)
	}
	const streams = 6
	outs := make([]*Output, streams)
	errs := make([]error, streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = e.RunContext(context.Background(), b, BFCBO)
			// Render every recorded run while other streams still record.
			if err := e.FlightRecorder().WriteJSON(io.Discard); err != nil && errs[i] == nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < streams; i++ {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if outs[i].Rows != serial.Rows {
			t.Fatalf("stream %d: rows = %d, want %d", i, outs[i].Rows, serial.Rows)
		}
		if outs[i].Sched.SlotBusy <= 0 {
			t.Fatalf("stream %d: no slot occupancy reported: %+v", i, outs[i].Sched)
		}
	}
	if e.Scheduler().InUse() != 0 || e.Scheduler().Admitted() != 0 {
		t.Fatalf("engine scheduler dirty: inUse=%d admitted=%d",
			e.Scheduler().InUse(), e.Scheduler().Admitted())
	}
}

// TestRunContextDeadline: an already-expired context must surface its
// error instead of executing.
func TestRunContextDeadline(t *testing.T) {
	e := engine(t)
	b, err := e.TPCH(3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.RunContext(ctx, b, BFCBO); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
}

func TestParseErrorsSurface(t *testing.T) {
	e := engine(t)
	if _, err := e.RunSQL("SELECT nothing", NoBF); err == nil {
		t.Fatal("bad SQL should error")
	}
	if _, err := e.ParseSQL("SELECT * FROM ghost"); err == nil {
		t.Fatal("unknown table should error")
	}
}

func TestPlanOnly(t *testing.T) {
	e := engine(t)
	b, err := e.TPCH(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Plan(b, BFCBO)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanningTime <= 0 || res.Plan == nil {
		t.Fatalf("degenerate plan result: %+v", res)
	}
	// The engine plans for the executor it runs, and says so wherever an
	// estimated cost is shown.
	if !strings.Contains(res.Plan.Explain(), "plan (BF-CBO)  profile=engine") {
		t.Fatalf("EXPLAIN header does not name the engine cost profile:\n%s", res.Plan.Explain())
	}
}
