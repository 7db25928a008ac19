// Package faults is a process-wide, deterministic, seed-driven fault
// injector. Call sites name an injection Site and ask Hit(site) whether
// this particular execution should fail; the decision is a pure function
// of (seed, site, per-site sequence number), so a given seed replays the
// exact same fault schedule run after run — the property the chaos soak
// test leans on for reproducibility.
//
// When no injector is installed the hot path is a single atomic pointer
// load returning nil — zero allocations, no branches beyond the nil
// check — so production builds pay nothing for the instrumentation
// (the same discipline as the obs package's disabled hot paths).
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Site names one injection point. Sites are a closed enum so the hot
// path indexes fixed arrays instead of hashing strings.
type Site uint8

const (
	// SpillWrite fails a spill chunk append (write(2) error).
	SpillWrite Site = iota
	// SpillRead fails a spill chunk read-back.
	SpillRead
	// SpillSync fails the flush/close of a finished run file.
	SpillSync
	// SpillRemove fails removal of a consumed run file.
	SpillRemove
	// SpillDiskFull is the ENOSPC site: it fires once cumulative spill
	// bytes charged via ChargeSpillBytes cross the configured limit.
	SpillDiskFull
	// MemDeny spuriously denies a non-forced broker grant, pushing
	// queries onto their spill/repartition paths.
	MemDeny
	// SchedSlot delays a worker-slot acquisition by the configured
	// SlotDelay, perturbing morsel interleavings.
	SchedSlot
	// SchedAdmit refuses an admission: Admit returns the fault wrapped,
	// and the engine surfaces it as the query's error.
	SchedAdmit
	// ExecPanic panics a worker at a morsel boundary; containment must
	// convert it to a per-query error.
	ExecPanic
	// ExecError injects a plain error at a morsel boundary.
	ExecError

	numSites
)

var siteNames = [numSites]string{
	SpillWrite:    "spill.write",
	SpillRead:     "spill.read",
	SpillSync:     "spill.sync",
	SpillRemove:   "spill.remove",
	SpillDiskFull: "spill.diskfull",
	MemDeny:       "mem.deny",
	SchedSlot:     "sched.slot",
	SchedAdmit:    "sched.admit",
	ExecPanic:     "exec.panic",
	ExecError:     "exec.error",
}

func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("faults.Site(%d)", uint8(s))
}

// Fault is the typed error returned by a firing site. It models an
// environmental hiccup (I/O error, scheduling delay), not a property of
// the query, so a caller can tell it apart from a real failure.
type Fault struct {
	Site Site
	Seq  uint64 // per-site sequence number of the firing check
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faults: injected %s fault (seq %d)", f.Site, f.Seq)
}

// Injector holds one immutable fault schedule: per-site firing
// probabilities plus per-site sequence counters that make each decision
// deterministic. Install with Enable; a nil active injector disables
// every site.
type Injector struct {
	seed    uint64
	prob    [numSites]uint64 // threshold: fire when mix < prob
	seq     [numSites]atomic.Uint64
	checked [numSites]atomic.Uint64
	fired   [numSites]atomic.Uint64

	// SlotDelay is how long a firing SchedSlot site stalls the caller.
	slotDelay time.Duration

	// diskLimit is the ENOSPC budget in bytes; diskBytes accumulates
	// charges. Zero limit disables the site.
	diskLimit int64
	diskBytes atomic.Int64
}

var active atomic.Pointer[Injector]

// Enable installs inj as the process-wide injector (nil uninstalls).
func Enable(inj *Injector) { active.Store(inj) }

// Disable uninstalls any active injector.
func Disable() { active.Store(nil) }

// splitmix64 is the usual finalizer-quality mixer; good enough to turn
// (seed, site, seq) into an independent uniform draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hit decides site's next check. The sequence counter is the only
// mutable state, so two goroutines racing on the same site still see a
// deterministic *set* of decisions (each sequence number fires or not
// identically across runs; only which goroutine draws which number
// varies).
func (inj *Injector) hit(site Site) error {
	p := inj.prob[site]
	if p == 0 {
		return nil
	}
	seq := inj.seq[site].Add(1) - 1
	inj.checked[site].Add(1)
	if splitmix64(inj.seed^(uint64(site)<<56)^seq) >= p {
		return nil
	}
	inj.fired[site].Add(1)
	return &Fault{Site: site, Seq: seq}
}

// Hit returns a typed *Fault when site fires on this call, nil
// otherwise (including when no injector is installed — the zero-cost
// production path).
func Hit(site Site) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	return inj.hit(site)
}

// SlotDelay returns the stall duration when the SchedSlot site fires on
// this call, 0 otherwise.
func SlotDelay() time.Duration {
	inj := active.Load()
	if inj == nil {
		return 0
	}
	if inj.hit(SchedSlot) == nil {
		return 0
	}
	d := inj.slotDelay
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// ChargeSpillBytes accounts n bytes against the disk-full budget and
// returns a SpillDiskFull fault once cumulative charges cross it. Every
// call after the budget is exhausted keeps failing, like a full disk.
func ChargeSpillBytes(n int64) error {
	inj := active.Load()
	if inj == nil || inj.diskLimit <= 0 {
		return nil
	}
	if inj.diskBytes.Add(n) <= inj.diskLimit {
		return nil
	}
	inj.checked[SpillDiskFull].Add(1)
	inj.fired[SpillDiskFull].Add(1)
	return &Fault{Site: SpillDiskFull, Seq: inj.seq[SpillDiskFull].Add(1) - 1}
}

// SiteStat is one site's lifetime counters.
type SiteStat struct {
	Site    string `json:"site"`
	Checked uint64 `json:"checked"`
	Fired   uint64 `json:"fired"`
}

// Stats returns per-site counters for sites with any activity.
func (inj *Injector) Stats() []SiteStat {
	var out []SiteStat
	for s := Site(0); s < numSites; s++ {
		c, f := inj.checked[s].Load(), inj.fired[s].Load()
		if c == 0 && f == 0 {
			continue
		}
		out = append(out, SiteStat{Site: s.String(), Checked: c, Fired: f})
	}
	return out
}

// TotalFired sums fired counts across all sites of the active injector;
// 0 when disabled. Exported as an obs CounterFunc.
func TotalFired() int64 {
	inj := active.Load()
	if inj == nil {
		return 0
	}
	var n uint64
	for s := Site(0); s < numSites; s++ {
		n += inj.fired[s].Load()
	}
	return int64(n)
}

// probThreshold converts probability p in [0,1] to a uint64 compare
// threshold.
func probThreshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return ^uint64(0)
	}
	return uint64(p * float64(1<<63) * 2)
}

// New builds an injector with the given seed and per-site
// probabilities. Sites absent from probs never fire.
func New(seed uint64, probs map[Site]float64) *Injector {
	inj := &Injector{seed: splitmix64(seed)}
	for s, p := range probs {
		if int(s) < int(numSites) {
			inj.prob[s] = probThreshold(p)
		}
	}
	return inj
}

// Parse builds an injector from a flag-style spec:
//
//	seed=42,spill.write=0.01,exec.panic=0.005,mem.deny=0.1,
//	spill.diskfull=1MB,sched.slot=0.02,slotdelay=2ms
//
// Site entries take a probability in [0,1]; spill.diskfull takes a byte
// budget (plain bytes or K/M/G[B] suffix); seed and slotdelay configure
// the schedule. An empty spec returns (nil, nil).
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var seed uint64 = 1
	var slotDelay time.Duration
	var diskLimit int64
	probs := map[Site]float64{}
	byName := map[string]Site{}
	for s := Site(0); s < numSites; s++ {
		byName[s.String()] = s
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("faults: %q is not key=value", part)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", v, err)
			}
			seed = n
		case "slotdelay":
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("faults: bad slotdelay %q: %v", v, err)
			}
			slotDelay = d
		case "spill.diskfull":
			n, err := parseBytes(v)
			if err != nil {
				return nil, fmt.Errorf("faults: bad spill.diskfull %q: %v", v, err)
			}
			diskLimit = n
		default:
			site, ok := byName[k]
			if !ok {
				return nil, fmt.Errorf("faults: unknown site %q", k)
			}
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || !(p >= 0 && p <= 1) { // NaN fails both
				return nil, fmt.Errorf("faults: %s wants a probability in [0,1], got %q", k, v)
			}
			probs[site] = p
		}
	}
	inj := New(seed, probs)
	inj.slotDelay = slotDelay
	inj.diskLimit = diskLimit
	return inj, nil
}

func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	for _, suf := range []struct {
		s string
		m int64
	}{{"GB", 1 << 30}, {"MB", 1 << 20}, {"KB", 1 << 10}, {"G", 1 << 30}, {"M", 1 << 20}, {"K", 1 << 10}, {"B", 1}} {
		if strings.HasSuffix(s, suf.s) {
			s, mult = strings.TrimSuffix(s, suf.s), suf.m
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("bad byte count")
	}
	return n * mult, nil
}
