package optimizer

import (
	"testing"

	"bfcbo/internal/bloom"
	"bfcbo/internal/datagen"
	"bfcbo/internal/tpch"
)

// The two profiles share every heuristic but Heuristic 5. The paper's
// scales with SF; the engine's is a byte cap on the filter the executor
// builds, the same at every SF: a filter at the cap's NDV fits it, and one
// with a key more does not.
func TestHeuristic5ByProfile(t *testing.T) {
	engineH5 := DefaultOptions(0.2).Heuristics.H5MaxBuildNDV
	for _, sf := range []float64{0.005, 0.2, 100} {
		if p := PaperOptions(sf).Heuristics; p != DefaultHeuristics(sf) {
			t.Errorf("SF %g: PaperOptions plans with %+v, not DefaultHeuristics' %+v", sf, p, DefaultHeuristics(sf))
		}
		e := DefaultOptions(sf).Heuristics
		if e.H5MaxBuildNDV != engineH5 {
			t.Errorf("SF %g: engine H5 %g, %g at SF 0.2", sf, e.H5MaxBuildNDV, engineH5)
		}
		e.H5MaxBuildNDV = DefaultHeuristics(sf).H5MaxBuildNDV
		if e != DefaultHeuristics(sf) {
			t.Errorf("SF %g: DefaultOptions differs from DefaultHeuristics beyond H5: %+v", sf, e)
		}
	}
	bytes := func(ndv float64) uint64 { return bloom.BitsForNDV(uint64(ndv)) / 8 }
	if got := bytes(engineH5); got > engineBloomBytes {
		t.Errorf("a filter of %g keys is %d bytes, above the %d-byte cap", engineH5, got, engineBloomBytes)
	}
	if got := bytes(engineH5 + 1); got <= engineBloomBytes {
		t.Errorf("a filter of %g keys is %d bytes, within the %d-byte cap: H5 is not the largest NDV that fits", engineH5+1, got, engineBloomBytes)
	}
}

// At SF 0.2 the filters that orders builds for the lineitem scans of Q4
// and Q21 — mirrored semi joins whose preserve side builds — hold about
// 11 500 and 6 650 keys. The paper's Heuristic 5, scaled to SF 0.2, caps a
// filter at 5 000 keys and prunes both; the engine's byte cap keeps them,
// and Q21's lineitem l1, so filtered, builds a filter for l2 in turn.
func TestEngineH5KeepsLineitemFilters(t *testing.T) {
	const sf = 0.2
	ds, err := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		query int
		want  [][2]string // build alias → apply alias
	}{
		{4, [][2]string{{"o", "l"}}},
		{21, [][2]string{{"o", "l1"}, {"l1", "l2"}}},
	} {
		q, _ := tpch.Get(c.query)
		b := q.Build(ds.Schema)
		res, err := Optimize(b, DefaultOptions(sf))
		if err != nil {
			t.Fatal(err)
		}
		got := map[[2]string]bool{}
		for _, bf := range res.Plan.Blooms {
			got[[2]string{b.Relations[bf.BuildRel].Alias, b.Relations[bf.ApplyRel].Alias}] = true
		}
		for _, w := range c.want {
			if !got[w] {
				t.Errorf("Q%d: no filter built on %s applied to %s:\n%s", c.query, w[0], w[1], res.Plan.Explain())
			}
		}
	}
}
