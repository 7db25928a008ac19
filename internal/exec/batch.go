package exec

// Batch is the unit of data flow between pipeline operators: a rowset
// with one row-id column per covered relation. A scan's batch has one
// column, the row ids its predicates and Bloom filters kept.
//
// Nothing else travels with a batch: a join probe gathers and hashes its
// own keys (the scan's Bloom filters hash with the filter's own hash,
// bloom.KeyHash, not the join tables').
//
// Ownership: a batch (and every slice it carries) is scratch owned by
// the producing operator and is valid only until that operator's next
// NextBatch call on the same worker. Sinks consume synchronously and
// copy what they keep, so no batch ever escapes its worker.
type Batch struct {
	rows *RowSet
}

// Len reports the number of rows in the batch (nil-safe).
func (b *Batch) Len() int {
	if b == nil || b.rows == nil {
		return 0
	}
	return b.rows.Len()
}
