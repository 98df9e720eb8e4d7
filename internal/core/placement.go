package core

import (
	"math"
	"sort"

	"drizzle/internal/rpc"
)

// Placement maps (stage, partition) pairs to workers using rendezvous
// (highest-random-weight) hashing. Two properties matter:
//
//   - Determinism: every node computes the same mapping from the same
//     membership list, so a single MembershipUpdate broadcast re-routes all
//     worker-to-worker notifications consistently.
//   - Minimal disruption: when a worker dies, only the partitions it owned
//     move; everything else — including the window state held by terminal
//     partitions — stays where it is.
type Placement struct {
	epoch   int64
	workers []rpc.NodeID // sorted for determinism
	index   map[rpc.NodeID]bool
	// weights, when non-nil, are per-worker placement capacities for
	// weighted rendezvous hashing; the driver derives them from worker
	// health so degraded machines attract fewer (weight < 1) or no
	// (weight 0) partitions. weighted is false when the weights are absent
	// or uniform, in which case Assign takes the exact unweighted path so
	// pre-health placements are bit-for-bit unchanged.
	weights  map[rpc.NodeID]float64
	weighted bool
}

// NewPlacement builds a placement over the given live workers.
func NewPlacement(epoch int64, workers []rpc.NodeID) Placement {
	return NewWeightedPlacement(epoch, workers, nil)
}

// NewWeightedPlacement builds a placement over the given live workers with
// per-worker weights. Workers missing from the map get weight 1; weight 0
// excludes a worker from Assign (it stays in the live set for lineage and
// broadcasts). Nil or uniform non-zero weights — including the degenerate
// all-zero map, which would otherwise leave nothing to assign to — fall
// back to plain rendezvous hashing.
func NewWeightedPlacement(epoch int64, workers []rpc.NodeID, weights map[rpc.NodeID]float64) Placement {
	ws := append([]rpc.NodeID(nil), workers...)
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	idx := make(map[rpc.NodeID]bool, len(ws))
	for _, w := range ws {
		idx[w] = true
	}
	p := Placement{epoch: epoch, workers: ws, index: idx}
	if len(weights) == 0 || len(ws) == 0 {
		return p
	}
	uniform, anyPositive := true, false
	first := weightOf(weights, ws[0])
	for _, w := range ws {
		wt := weightOf(weights, w)
		if wt != first {
			uniform = false
		}
		if wt > 0 {
			anyPositive = true
		}
	}
	if uniform || !anyPositive {
		return p
	}
	wcopy := make(map[rpc.NodeID]float64, len(weights))
	for k, v := range weights {
		wcopy[k] = v
	}
	p.weights = wcopy
	p.weighted = true
	return p
}

func weightOf(weights map[rpc.NodeID]float64, w rpc.NodeID) float64 {
	wt, ok := weights[w]
	if !ok {
		return 1
	}
	if wt < 0 {
		return 0
	}
	return wt
}

// Weights returns the placement's weight map (nil when unweighted).
func (p Placement) Weights() map[rpc.NodeID]float64 {
	if p.weights == nil {
		return nil
	}
	out := make(map[rpc.NodeID]float64, len(p.weights))
	for k, v := range p.weights {
		out[k] = v
	}
	return out
}

// Epoch returns the membership epoch this placement was derived from.
func (p Placement) Epoch() int64 { return p.epoch }

// Workers returns the live workers (sorted).
func (p Placement) Workers() []rpc.NodeID {
	return append([]rpc.NodeID(nil), p.workers...)
}

// NumWorkers reports the size of the live set.
func (p Placement) NumWorkers() int { return len(p.workers) }

// Contains reports whether w is in the live set.
func (p Placement) Contains(w rpc.NodeID) bool { return p.index[w] }

// Assign returns the worker owning (stage, partition). It panics if the
// placement is empty: scheduling onto an empty cluster is a driver bug that
// must not be silently absorbed.
func (p Placement) Assign(stage, partition int) rpc.NodeID {
	if len(p.workers) == 0 {
		panic("core: placement over empty worker set")
	}
	if p.weighted {
		return p.assignWeighted(stage, partition)
	}
	var (
		best      rpc.NodeID
		bestScore uint64
	)
	for _, w := range p.workers {
		s := rendezvousScore(w, stage, partition)
		if best == "" || s > bestScore || (s == bestScore && w < best) {
			best, bestScore = w, s
		}
	}
	return best
}

// assignWeighted is weighted rendezvous hashing (highest -w/ln(u) wins):
// a worker with twice the weight owns, in expectation, twice the
// partitions, and weight-0 workers own none. The uniform hash u comes from
// the same per-(worker,stage,partition) 64-bit score the unweighted path
// compares directly, so the choice is equally deterministic across nodes;
// float64 math on identical inputs is identical everywhere Go runs.
func (p Placement) assignWeighted(stage, partition int) rpc.NodeID {
	var (
		best      rpc.NodeID
		bestScore float64
	)
	for _, w := range p.workers {
		wt := weightOf(p.weights, w)
		if wt <= 0 {
			continue
		}
		// Map the hash to u in (0,1): the +0.5 / 2^53 construction cannot
		// produce exactly 0 or 1, keeping ln(u) finite and negative.
		h := rendezvousScore(w, stage, partition)
		u := (float64(h>>11) + 0.5) / (1 << 53)
		s := -wt / math.Log(u)
		if best == "" || s > bestScore || (s == bestScore && w < best) {
			best, bestScore = w, s
		}
	}
	if best == "" {
		// All positive-weight workers filtered out (cannot happen — the
		// constructor falls back to unweighted when no weight is positive)
		// but never return "" to a scheduler.
		return p.workers[0]
	}
	return best
}

// rendezvousScore hashes (worker, stage, partition). The worker id bytes go
// through FNV-1a; the coordinates are folded in and the result is run
// through a murmur3-style finalizer, which diffuses low-bit coordinate
// differences into the high bits the max comparison is dominated by.
func rendezvousScore(w rpc.NodeID, stage, partition int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(w); i++ {
		h ^= uint64(w[i])
		h *= prime64
	}
	h ^= uint64(stage)*0x9e3779b97f4a7c15 + uint64(partition)*0xc2b2ae3d27d4eb4f
	return fmix64(h)
}

// fmix64 is the 64-bit finalizer from MurmurHash3.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
