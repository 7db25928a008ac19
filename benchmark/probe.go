package main

import "time"

// The host probe. The hosts this benchmark runs on are shared: the same code
// runs up to a third slower for seconds or for an hour, when a neighbour
// keeps the sibling hyperthread or the last-level cache busy. That moves
// every timing of a run together, by more than the changes the benchmark is
// there to resolve, and no estimator over the run's own passes removes it: a
// run that is slow throughout has no fast pass to find. A fixed piece of work
// timed between the passes does. hostProbe is that work. A pass's times are
// divided by the mean of the probe readings on either side of it and
// multiplied by probeRefMS, so that they still read as milliseconds: those
// of a host on which the probe takes probeRefMS. Over ten seeds per workload
// in an hour in which the probe read 18-20 ms, the median pass wall spread
// (interquartile distance over median) 0.16-0.24 as measured, its lowest
// pass 0.13-0.19, and 0.05-0.11 rescaled (README, "Noise floor").
//
// The probe is two loops, one bound by the core and one by the cache, because
// the workloads slow down with both: four independent multiply-shift chains
// in registers, and a million random loads from an 8 MB table. It allocates
// nothing and runs while no client does.

// probeRefMS is the probe's reading on the host the README's numbers come
// from, at its full speed. It only fixes the scale of the reported times.
const probeRefMS = 12.8

var (
	probeTable = newProbeTable()
	probeSink  uint64 // keeps the loops' results live
)

func newProbeTable() []uint64 {
	t := make([]uint64, 1<<20)
	for i := range t {
		t[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return t
}

// hostProbe times the two loops once and returns the wall in ms.
func hostProbe() float64 {
	t0 := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < 4_000_000; i++ {
		a = a*0x9e3779b97f4a7c15 ^ (a >> 29)
		b = b*0xbf58476d1ce4e5b9 ^ (b >> 31)
		c = c*0x94d049bb133111eb ^ (c >> 27)
		d = d*0xff51afd7ed558ccd ^ (d >> 33)
	}
	idx, s := uint64(12345), uint64(0)
	for i := 0; i < 1_000_000; i++ {
		idx = idx*6364136223846793005 + 1442695040888963407
		s += probeTable[(idx>>33)&(1<<20-1)]
	}
	probeSink += a + b + c + d + s
	return ms(time.Since(t0))
}
