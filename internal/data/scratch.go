package data

// SourceScratch is memory a source task renders its batch into: the record
// headers and the bytes their payloads slice. The engine lends each executor
// slot one for its lifetime (dag.BatchInfo.Scratch), so a source in steady
// state allocates nothing; everything drawn from it is valid only until the
// task returns, when the slot's next task draws the same memory again.
//
// Both buffers only grow. A nil *SourceScratch allocates a fresh slice per
// call, which is how a source runs outside the engine — replay oracles and
// the continuous engine keep what they generate for as long as they like.
type SourceScratch struct {
	recs  []Record
	bytes []byte
}

// Records returns an empty slice with capacity at least n.
func (s *SourceScratch) Records(n int) []Record {
	if s == nil {
		return make([]Record, 0, n)
	}
	if cap(s.recs) < n {
		s.recs = make([]Record, 0, n)
	}
	return s.recs[:0]
}

// Bytes returns an empty slice with capacity at least n.
func (s *SourceScratch) Bytes(n int) []byte {
	if s == nil {
		return make([]byte, 0, n)
	}
	if cap(s.bytes) < n {
		s.bytes = make([]byte, 0, n)
	}
	return s.bytes[:0]
}
