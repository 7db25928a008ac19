package bfcbo

import (
	"errors"
	"io"
	"strconv"
	"sync"
	"testing"
	"time"

	"bfcbo/internal/obs"
	"bfcbo/internal/query"
)

// TestKillLandsWithinMorselBoundary: Kill routes through the inspector
// into the executor's run-wide stop flag, so a killed query must return
// promptly — workers exit at their next morsel boundary, not at end of
// pipeline — with an error wrapping obs.ErrKilled. The query may finish
// before the kill lands at test scale, so the attempt loop retries until
// one kill connects mid-run.
func TestKillLandsWithinMorselBoundary(t *testing.T) {
	e, err := Open(Config{ScaleFactor: 0.02, Seed: 9, DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.TPCH(9)
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 25; attempt++ {
		errCh := make(chan error, 1)
		go func() {
			_, err := e.Run(b, BFCBO)
			errCh <- err
		}()
		// Catch the query in flight via the live view, then kill it.
		var id int64 = -1
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if snaps := e.Inspector().Snapshot(); len(snaps) > 0 {
				id = snaps[0].ID
				break
			}
			time.Sleep(20 * time.Microsecond)
		}
		if id < 0 {
			<-errCh // finished before we ever saw it; try again
			continue
		}
		if !e.Kill(id) {
			<-errCh // finished between the snapshot and the kill
			continue
		}
		killAt := time.Now()
		err := <-errCh
		if err == nil {
			continue // the final morsel completed before the flag was seen
		}
		if !errors.Is(err, obs.ErrKilled) {
			t.Fatalf("killed run returned %v, want an error wrapping obs.ErrKilled", err)
		}
		// Morsel-boundary promptness: winding down must not wait for the
		// pipeline to finish its remaining morsels.
		if wound := time.Since(killAt); wound > time.Second {
			t.Fatalf("kill took %v to land — not a morsel boundary", wound)
		}
		if n := len(e.Inspector().Snapshot()); n != 0 {
			t.Fatalf("%d queries still registered live after the kill", n)
		}
		// The engine keeps working after a kill.
		if _, err := e.Run(b, BFCBO); err != nil {
			t.Fatalf("run after kill failed: %v", err)
		}
		return
	}
	t.Skip("query never caught in flight in 25 attempts (machine too fast for this scale)")
}

// TestLiveProgressMonotonicUnderScrape is the multi-stream -race test:
// several streams run concurrently while one goroutine polls
// Inspector.Snapshot checking that every query's completion fraction and
// per-pipeline morsel counters only ever grow (no torn snapshots), and
// another continuously serializes the registry, live view, and workload
// history the way HTTP scrapers do.
func TestLiveProgressMonotonicUnderScrape(t *testing.T) {
	e, err := Open(Config{ScaleFactor: 0.01, Seed: 9, DOP: 4, SlowQueryLog: 64})
	if err != nil {
		t.Fatal(err)
	}
	var blocks []*query.Block
	for _, q := range []int{5, 9, 12} {
		b, err := e.TPCH(q)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}

	stop := make(chan struct{})
	var scrapers sync.WaitGroup

	// Sampler: monotonicity of fractions and morsel counters per query id.
	sawLive := 0
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		lastFrac := map[int64]float64{}
		lastMorsels := map[int64]map[int]int64{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			snaps := e.Inspector().Snapshot()
			if len(snaps) > 0 {
				sawLive++
			}
			for _, q := range snaps {
				if q.Fraction < 0 || q.Fraction > 1 {
					t.Errorf("query %d fraction %v out of [0,1]", q.ID, q.Fraction)
					return
				}
				if q.Fraction < lastFrac[q.ID] {
					t.Errorf("query %d fraction retreated %v -> %v", q.ID, lastFrac[q.ID], q.Fraction)
					return
				}
				lastFrac[q.ID] = q.Fraction
				pm := lastMorsels[q.ID]
				if pm == nil {
					pm = map[int]int64{}
					lastMorsels[q.ID] = pm
				}
				for _, p := range q.Pipelines {
					if p.MorselsDone < pm[p.ID] {
						t.Errorf("query %d pipeline %d morsels retreated %d -> %d",
							q.ID, p.ID, pm[p.ID], p.MorselsDone)
						return
					}
					pm[p.ID] = p.MorselsDone
				}
			}
		}
	}()

	// Serializer: the exact read paths the HTTP handler exercises, racing
	// against the executors' operator counters and registry updates.
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = e.MetricsRegistry().WriteProm(io.Discard)
			_ = e.Inspector().WriteJSON(io.Discard)
			_ = e.Workload().WriteJSON(io.Discard)
		}
	}()

	const streams, rounds = 4, 3
	errs := make([]error, streams)
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, b := range blocks {
					if _, err := e.Run(b, BFCBO); err != nil {
						errs[s] = err
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if sawLive == 0 {
		t.Fatal("sampler never observed an in-flight query")
	}
	if n := len(e.Inspector().Snapshot()); n != 0 {
		t.Fatalf("%d queries still registered live after all streams finished", n)
	}
}

// TestWorkloadHistoryAgreesWithRecorder: the per-fingerprint aggregates
// must be bookkeeping-identical to the flight recorder's per-query ground
// truth — same exec counts per shape, same mean latency, same mode — and
// fingerprints must be stable across runs of a query and distinct across
// different queries.
func TestWorkloadHistoryAgreesWithRecorder(t *testing.T) {
	e, err := Open(Config{ScaleFactor: 0.005, Seed: 9, DOP: 4, SlowQueryLog: 64})
	if err != nil {
		t.Fatal(err)
	}
	runs := map[int]int{12: 4, 5: 3, 9: 2}
	for q, n := range runs {
		b, err := e.TPCH(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := e.Run(b, BFCBO); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Ground truth: group the recorder's retained records by fingerprint.
	recCount := map[string]int64{}
	recLatNs := map[string]int64{}
	for _, qr := range e.FlightRecorder().Recent() {
		if qr.Fingerprint == "" {
			t.Fatalf("record %d (%s) has no fingerprint", qr.ID, qr.Label)
		}
		recCount[qr.Fingerprint]++
		recLatNs[qr.Fingerprint] += int64(qr.Latency)
	}
	total := 0
	for _, n := range runs {
		total += n
	}
	if len(e.FlightRecorder().Recent()) != total {
		t.Fatalf("recorder retained %d records, want all %d", len(e.FlightRecorder().Recent()), total)
	}
	// Three queries, three distinct shapes.
	if len(recCount) != len(runs) {
		t.Fatalf("%d distinct fingerprints across %d distinct queries", len(recCount), len(runs))
	}

	entries := e.Workload().Snapshot()
	if len(entries) != len(runs) {
		t.Fatalf("workload store has %d shapes, want %d", len(entries), len(runs))
	}
	for _, entry := range entries {
		wantCount, ok := recCount[entry.Fingerprint]
		if !ok {
			t.Fatalf("store shape %s (%s) absent from the recorder", entry.Fingerprint, entry.Label)
		}
		if entry.Count != wantCount {
			t.Fatalf("shape %s: store count %d != recorder count %d",
				entry.Fingerprint, entry.Count, wantCount)
		}
		recMeanMS := float64(recLatNs[entry.Fingerprint]) / float64(wantCount) / 1e6
		if diff := entry.MeanMS - recMeanMS; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("shape %s: store mean %.6fms != recorder mean %.6fms",
				entry.Fingerprint, entry.MeanMS, recMeanMS)
		}
		if entry.Errors != 0 {
			t.Fatalf("shape %s reports %d errors on an all-success workload", entry.Fingerprint, entry.Errors)
		}
		// The store's hex keys parse back to live fingerprints.
		if fp, err := strconv.ParseUint(entry.Fingerprint, 16, 64); err != nil || fp == 0 {
			t.Fatalf("shape key %q does not parse", entry.Fingerprint)
		}
	}

	// Re-running a query folds into the same shape: counts advance, no new
	// fingerprint appears.
	b, err := e.TPCH(12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(b, BFCBO); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Workload().Snapshot()); got != len(runs) {
		t.Fatalf("re-run minted a new fingerprint: %d shapes, want %d", got, len(runs))
	}

	// A different optimizer mode is a different shape.
	if _, err := e.Run(b, NoBF); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Workload().Snapshot()); got != len(runs)+1 {
		t.Fatalf("mode change did not mint a new fingerprint: %d shapes, want %d",
			got, len(runs)+1)
	}

	// WorkloadHistory < 0 disables the store; runs must not panic.
	off, err := Open(Config{ScaleFactor: 0.003, Seed: 9, DOP: 2, WorkloadHistory: -1})
	if err != nil {
		t.Fatal(err)
	}
	if off.Workload() != nil {
		t.Fatal("negative WorkloadHistory should disable the store")
	}
	b2, err := off.TPCH(12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := off.Run(b2, BFCBO); err != nil {
		t.Fatal(err)
	}
}
