// Package data defines the record model that flows through both execution
// engines, along with hashing, partitioning and binary (de)serialization.
//
// Records deliberately use a fixed, flat layout (a 64-bit key, a 64-bit
// value, an event-time timestamp and an opaque payload) rather than
// reflection-based rows: every workload in the paper — ad-campaign counts,
// video session summaries, sums of random numbers — reduces to keyed numeric
// aggregation, and a flat layout keeps the shuffle path allocation-free.
// String keys (campaign IDs, session IDs) are mapped to uint64 via FNV-1a;
// the Dictionary type recovers the original strings for sinks that need them.
package data

import (
	"fmt"
	"sync"
)

// Record is the unit of data exchanged between operators and across shuffles.
type Record struct {
	// Key is the grouping key (hash of the logical key for string keys).
	Key uint64
	// Val is the numeric value carried by the record. For counting
	// workloads it is 1; for sums it is the addend.
	Val int64
	// Time is the event time in nanoseconds since the epoch. Windows are
	// assigned from event time.
	Time int64
	// Payload carries opaque bytes for workloads whose records are larger
	// than the numeric fields (e.g. video heartbeats). It is preserved
	// across shuffles but ignored by numeric aggregation.
	Payload []byte
}

// String implements fmt.Stringer for debugging output.
func (r Record) String() string {
	return fmt.Sprintf("Record{key=%d val=%d t=%d |payload|=%d}", r.Key, r.Val, r.Time, len(r.Payload))
}

// HashString maps a string key to a uint64 record key using FNV-1a.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// HashBytes is HashString for a key that is still a slice of a payload: the
// same hash, without making a string of the bytes.
func HashBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// Dictionary is a concurrency-safe bidirectional map between string keys and
// their uint64 hashes. Workloads register keys once at setup; sinks use it to
// print human-readable results.
type Dictionary struct {
	mu      sync.RWMutex
	byHash  map[uint64]string
	ordered []string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byHash: make(map[uint64]string)}
}

// Add registers s and returns its hash. Adding the same string twice is
// idempotent.
func (d *Dictionary) Add(s string) uint64 {
	h := HashString(s)
	d.mu.Lock()
	if _, ok := d.byHash[h]; !ok {
		d.byHash[h] = s
		d.ordered = append(d.ordered, s)
	}
	d.mu.Unlock()
	return h
}

// Lookup returns the string registered for hash h, if any.
func (d *Dictionary) Lookup(h uint64) (string, bool) {
	d.mu.RLock()
	s, ok := d.byHash[h]
	d.mu.RUnlock()
	return s, ok
}

// Strings returns all registered strings in insertion order.
func (d *Dictionary) Strings() []string {
	d.mu.RLock()
	out := append([]string(nil), d.ordered...)
	d.mu.RUnlock()
	return out
}

// Len reports the number of registered strings.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	n := len(d.byHash)
	d.mu.RUnlock()
	return n
}
