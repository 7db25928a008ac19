package bloom

import "errors"

// Partitioned is a set of n partial Bloom filters, one per hash-join
// partition, as built by the partition-join streaming strategies of §3.9.
// Keys are routed to a partition by the same partitioning function the
// exchange operator uses (hash of the partition column modulo n), so the
// apply side looks up the right partition from the key itself (distributed
// lookup).
type Partitioned struct {
	parts []*Filter
}

// NewPartitioned creates n partial filters, each sized for ndvPerPart
// expected distinct values.
func NewPartitioned(n int, ndvPerPart uint64) (*Partitioned, error) {
	if n <= 0 {
		return nil, errors.New("bloom: partition count must be positive")
	}
	p := &Partitioned{parts: make([]*Filter, n)}
	for i := range p.parts {
		p.parts[i] = NewForNDV(ndvPerPart)
	}
	return p, nil
}

// Part returns the i-th partial filter; the executor builds into it from the
// thread that owns partition i.
func (p *Partitioned) Part(i int) *Filter { return p.parts[i] }

// Add routes the key to its partition's filter.
func (p *Partitioned) Add(key int64) { p.AddHash(KeyHash(key)) }

// AddHash is Add over a precomputed KeyHash: the hash selects the
// partition and sets the partition filter's bits, one mix total.
func (p *Partitioned) AddHash(h uint64) {
	p.parts[h%uint64(len(p.parts))].AddHash(h)
}

// MayContain probes with distributed lookup: the partition is derived from
// the key itself (§3.9 strategy 3, "partition-unaligned" with the
// partitioning column available on the apply side).
func (p *Partitioned) MayContain(key int64) bool {
	return p.MayContainHash(KeyHash(key))
}

// MayContainHash is the distributed lookup over a precomputed KeyHash.
func (p *Partitioned) MayContainHash(h uint64) bool {
	return p.parts[h%uint64(len(p.parts))].MayContainHash(h)
}

// FilterSelHashes is the vectorized distributed-lookup probe: hashes[i]
// is the KeyHash for selected row sel[i]; each hash routes to its
// partition as in MayContainHash. sel is compacted in place and the kept
// prefix returned.
func (p *Partitioned) FilterSelHashes(hashes []uint64, sel []int32) []int32 {
	parts := p.parts
	np := uint64(len(parts))
	n := 0
	for i, r := range sel {
		h := hashes[i]
		if parts[h%np].MayContainHash(h) {
			sel[n] = r
			n++
		}
	}
	return sel[:n]
}

// FilterSelHashesCarry is FilterSelHashes with a lockstep-compacted carry
// vector, as on Filter; carry == hashes is safe (in-place compaction).
func (p *Partitioned) FilterSelHashesCarry(hashes []uint64, sel []int32, carry []uint64) ([]int32, []uint64) {
	parts := p.parts
	np := uint64(len(parts))
	n := 0
	for i, r := range sel {
		h := hashes[i]
		if parts[h%np].MayContainHash(h) {
			sel[n] = r
			carry[n] = carry[i]
			n++
		}
	}
	return sel[:n], carry[:n]
}

// Inserted reports total Add calls across partitions.
func (p *Partitioned) Inserted() uint64 {
	var n uint64
	for _, f := range p.parts {
		n += f.Inserted()
	}
	return n
}

// Saturation reports the mean saturation across partitions.
func (p *Partitioned) Saturation() float64 {
	var s float64
	for _, f := range p.parts {
		s += f.Saturation()
	}
	return s / float64(len(p.parts))
}
