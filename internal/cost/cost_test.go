package cost

import (
	"strings"
	"testing"
	"testing/quick"
)

// profiles are the two named parameter sets; tests of the model's
// algebra hold for both.
var profiles = []Params{Paper(), Engine()}

func TestDefaultValid(t *testing.T) {
	for _, p := range profiles {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s profile must validate: %v", p.Name, err)
		}
	}
	if Paper().Name != "paper" || Engine().Name != "engine" {
		t.Fatalf("profile names %q, %q", Paper().Name, Engine().Name)
	}
}

// The paper profile is pinned field by field: plans.golden and every
// reproduced claim are stated under exactly these numbers.
func TestPaperProfilePinned(t *testing.T) {
	want := Params{
		Name: "paper", CPUTupleCost: 0.01, CPUOperatorCost: 0.0025,
		HashBuildCost: 0.008, HashProbeCost: 0.01,
		BloomApplyCost: 0.004, TransferCost: 0.012, DOP: 48,
	}
	if got := Paper(); got != want {
		t.Fatalf("Paper() = %+v, want %+v", got, want)
	}
}

// What makes the engine profile the engine's: nothing is charged for
// moving rows between threads, and a build row is dearer than a probe key
// — so the smaller input builds, and every parallel hash join
// redistributes (a broadcast would only replicate the build).
func TestEngineProfileShape(t *testing.T) {
	p := Engine()
	if p.TransferCost != 0 {
		t.Fatalf("engine TransferCost = %g: shared memory moves no rows", p.TransferCost)
	}
	if p.HashBuildCost <= p.HashProbeCost {
		t.Fatalf("engine build %g not above probe %g", p.HashBuildCost, p.HashProbeCost)
	}
	small, big := 30_000.0, 300_000.0 // Q12's filtered lineitem and orders, in shape
	buildSmall, s := p.HashJoin(big, small)
	buildBig, _ := p.HashJoin(small, big)
	if buildSmall >= buildBig {
		t.Fatalf("building the small side costs %g, the big side %g", buildSmall, buildBig)
	}
	if s != Redistribute {
		t.Fatalf("engine hash join streams %s, want RD", s)
	}
	// Between inputs of comparable size the paper profile prefers the
	// opposite orientation: that is the Figure 1(a) baseline.
	pp := Paper()
	buildSmall, _ = pp.HashJoin(big, small)
	buildBig, _ = pp.HashJoin(small, big)
	if buildBig >= buildSmall {
		t.Fatalf("paper profile: building the big side costs %g, the small side %g", buildBig, buildSmall)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	for _, c := range []struct {
		name   string
		break_ func(*Params)
		want   string
	}{
		{"bloom dearer than probe", func(p *Params) { p.BloomApplyCost = p.HashProbeCost * 2 }, "BloomApplyCost"},
		{"DOP 0", func(p *Params) { p.DOP = 0 }, "DOP"},
		{"free scan", func(p *Params) { p.CPUTupleCost = 0 }, "CPUTupleCost"},
		{"free probe", func(p *Params) { p.HashProbeCost, p.BloomApplyCost = 0, -1 }, "HashProbeCost"},
	} {
		for _, p := range profiles {
			c.break_(&p)
			err := p.Validate()
			if err == nil {
				t.Fatalf("%s (%s): must be invalid", c.name, p.Name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s (%s): error %q does not name %s", c.name, p.Name, err, c.want)
			}
		}
	}
}

func TestScanCostComposition(t *testing.T) {
	p := Paper()
	base := p.Scan(1000, 0, 0, 0)
	withPred := p.Scan(1000, 2, 0, 0)
	withBloom := p.Scan(1000, 2, 300, 1)
	if base != 1000*p.CPUTupleCost {
		t.Fatalf("base scan cost = %v", base)
	}
	if withPred-base != 1000*2*p.CPUOperatorCost {
		t.Fatalf("pred increment = %v", withPred-base)
	}
	// A filter tests only the rows that passed the predicates.
	if withBloom != withPred+300*p.BloomApplyCost {
		t.Fatalf("bloom increment = %v", withBloom-withPred)
	}
}

func TestBloomApplyCheaperThanProbe(t *testing.T) {
	for _, p := range profiles {
		bloomApplyCheaperThanProbe(t, p)
	}
}

func bloomApplyCheaperThanProbe(t *testing.T, p Params) {
	// Filtering 1M rows down to 100K before a hash probe must beat
	// probing all 1M rows, when the filter is effective.
	noBF, _ := p.HashJoin(1_000_000, 1000)
	bfScanExtra := p.Scan(1_000_000, 0, 1_000_000, 1) - p.Scan(1_000_000, 0, 0, 0)
	withBF, _ := p.HashJoin(100_000, 1000)
	if bfScanExtra+withBF >= noBF {
		t.Fatalf("%s: effective Bloom filter should pay off: %v + %v vs %v", p.Name, bfScanExtra, withBF, noBF)
	}
}

func TestHashJoinStreamingChoice(t *testing.T) {
	p := Paper()
	p.DOP = 8
	// Tiny build side, huge probe: broadcast should win.
	_, s := p.HashJoin(10_000_000, 100)
	if s != BroadcastInner {
		t.Fatalf("tiny build side should broadcast, got %s", s)
	}
	// Large build side, similar probe: redistribute should win.
	_, s = p.HashJoin(1_000_000, 1_000_000)
	if s != Redistribute {
		t.Fatalf("balanced large join should redistribute, got %s", s)
	}
	// DOP 1: no streaming.
	p.DOP = 1
	_, s = p.HashJoin(1000, 1000)
	if s != None {
		t.Fatalf("DOP 1 should not stream, got %s", s)
	}
}

func TestStreamingString(t *testing.T) {
	if None.String() != "none" || BroadcastInner.String() != "BC" || Redistribute.String() != "RD" {
		t.Fatal("streaming labels wrong")
	}
}

// Property: costs are non-negative and monotone in input size.
func TestQuickCostMonotone(t *testing.T) {
	for _, p := range profiles {
		quickCostMonotone(t, p)
	}
}

func quickCostMonotone(t *testing.T, p Params) {
	prop := func(aSeed, bSeed uint32) bool {
		a, b := float64(aSeed%1_000_000), float64(bSeed%1_000_000)
		hj1, _ := p.HashJoin(a, b)
		hj2, _ := p.HashJoin(a+1000, b)
		if hj1 < 0 || hj2 < hj1 {
			return false
		}
		return p.Scan(a, 1, a, 1) >= p.Scan(a, 0, 0, 0)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
