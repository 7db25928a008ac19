package exec

// Batch is the unit of data flow between pipeline operators: the
// (rowset, sel, hashes) contract. The rowset carries one
// row-id column per covered relation; the optional side channels let
// downstream operators skip recomputing work the producer already did:
//
//   - sel: the scan's final selection vector over its base table. For
//     scan-produced batches it aliases rows' single row-id column; after
//     a join it is nil (the rowset then has one column per relation).
//   - hashes: hashes[i] == hashtab.Hash of the (hashRel, hashCol) key at
//     row i. A scan fills it when a Bloom probe already hashed the
//     column a downstream join probes on; the probe then skips its
//     HashVec pass.
//
// Ownership: a batch (and every slice it carries) is scratch owned by
// the producing operator and is valid only until that operator's next
// NextBatch call on the same worker. Sinks consume synchronously and
// copy what they keep, so no batch ever escapes its worker.
type Batch struct {
	rows *RowSet
	sel  []int32

	hashes  []uint64
	hashRel int
	hashCol string
}

// Len reports the number of rows in the batch (nil-safe).
func (b *Batch) Len() int {
	if b == nil || b.rows == nil {
		return 0
	}
	return b.rows.Len()
}

// hashesFor returns the cached hash vector if it covers (rel, col).
func (b *Batch) hashesFor(rel int, col string) []uint64 {
	if b == nil || b.hashes == nil || b.hashRel != rel || b.hashCol != col {
		return nil
	}
	return b.hashes
}
