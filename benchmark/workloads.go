package main

import (
	"fmt"
	"math"
	"time"

	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/streaming"
	"drizzle/internal/workload"
)

// Frozen input rates, in events per second per source partition. They were
// sized once on the reference box so that the measured interval uses 35-45 %
// of the one CPU a run is given, and are never calibrated per run: a change that
// makes the engine faster must show as less CPU per record and lower
// latency at the same offered load, not as a different load. video-kill
// uses 25 %: the replay after a kill needs the idle CPU, and at 40 % a slow
// phase of the host made some recoveries take seconds.
const (
	yahooRate    = 200_000
	sessionsRate = 290_000
	videoRate    = 50_000
)

const (
	groupSize      = 10
	slotsPerWorker = 2
)

// workloadSpec is one benchmark workload: the job's shape, the cluster it
// runs on and the limit a window result must meet.
type workloadSpec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string

	interval      time.Duration
	windowBatches int // window = windowBatches x interval
	mapParts      int
	reduceParts   int
	workers       int
	combine       streaming.CombineMode
	// durable turns on the driver WAL and the log-structured checkpoint
	// store in a temp dir; otherwise checkpoints go to a MemStore.
	durable bool
	// kills is the number of worker kills (each followed by a join) spread
	// over the measured interval.
	kills int
	// limit is the latest a window result may be emitted after its window
	// ended before the operation counts as failed.
	limit time.Duration
	// checkAll verifies every measured window against the reference
	// instead of a sample.
	checkAll bool

	// build makes the job's generator and narrow operators from a seed.
	// rateScale < 1 shrinks the input (smoke mode).
	build func(w *workloadSpec, seed uint64, rateScale float64) jobParts
}

// jobParts is the workload-specific half of a job: everything upstream of
// the shuffle. The benchmark wraps these with its own timing before handing
// them to the engine, and calls them bare for the reference computation.
type jobParts struct {
	source dag.SourceFunc
	op     dag.NarrowOp // nil when the source already emits keyed records
	// universe is every key the job can emit; the reduce partitions that
	// own at least one of them are the ones expected to emit each window.
	universe []uint64
}

func (w *workloadSpec) window() time.Duration {
	return time.Duration(w.windowBatches) * w.interval
}

var workloads = []*workloadSpec{
	{
		name:          "yahoo-combine",
		why:           "JSON parse, filter, join and map-side combine do the work; shuffle blocks are tiny and state is small (paper Fig 8)",
		interval:      100 * time.Millisecond,
		windowBatches: 2,
		mapParts:      4,
		reduceParts:   4,
		workers:       2,
		combine:       streaming.Combine,
		limit:         250 * time.Millisecond,
		build: func(w *workloadSpec, seed uint64, scale float64) jobParts {
			y := workload.NewYahoo(workload.YahooConfig{
				Campaigns:                100,
				AdsPerCampaign:           10,
				EventsPerSecPerPartition: scaled(yahooRate, scale),
				WindowSize:               w.window(),
				Seed:                     seed,
			})
			var keys []uint64
			for _, name := range y.Dictionary().Strings() {
				keys = append(keys, data.HashString(name))
			}
			return jobParts{source: y.SourceFunc(), op: y.ParseFilterJoinOp(), universe: keys}
		},
	},
	{
		name:          "sessions-groupby",
		why:           "pre-keyed Zipf records with no combine: every record crosses encode, store, fetch, decode and state, the map side is idle (paper Fig 6)",
		interval:      100 * time.Millisecond,
		windowBatches: 3, // not a divisor of the group, so checkpoints capture open windows
		mapParts:      4,
		reduceParts:   4,
		workers:       2,
		combine:       streaming.NoCombine,
		limit:         250 * time.Millisecond,
		build: func(w *workloadSpec, seed uint64, scale float64) jobParts {
			s := newSessions(50_000, 1.2, scaled(sessionsRate, scale), seed)
			return jobParts{source: s.source, universe: s.keys}
		},
	},
	{
		name:          "sched-tiny",
		why:           "240 one-record tasks per group at a 20 ms interval: planner, launch codec, TCP round trips, local scheduler and driver commits are the whole cost (paper 5.2)",
		interval:      20 * time.Millisecond,
		windowBatches: 1,
		mapParts:      16,
		reduceParts:   8,
		workers:       2,
		combine:       streaming.NoCombine,
		limit:         250 * time.Millisecond,
		checkAll:      true,
		build: func(_ *workloadSpec, seed uint64, _ float64) jobParts {
			keys := make([]uint64, 16)
			for i := range keys {
				keys[i] = uint64(i)
			}
			return jobParts{
				source:   workload.SumSourceFunc(workload.SumConfig{NumbersPerTask: 64, Seed: seed}),
				universe: keys,
			}
		},
	},
	{
		name:          "video-kill",
		why:           "everything on at once (parse, combine, WAL, fsynced checkpoints) while a worker is killed and replaced three times: recovery and state migration (paper Fig 7/9)",
		interval:      100 * time.Millisecond,
		windowBatches: 3,
		mapParts:      4,
		reduceParts:   4,
		workers:       3,
		combine:       streaming.Combine,
		durable:       true,
		kills:         3,
		limit:         5 * time.Second,
		build: func(w *workloadSpec, seed uint64, scale float64) jobParts {
			v := workload.NewVideo(workload.VideoConfig{
				Sessions:                 50_000,
				EventsPerSecPerPartition: scaled(videoRate, scale),
				ZipfS:                    1.2,
				WindowSize:               w.window(),
				Seed:                     seed,
			})
			var keys []uint64
			for _, name := range v.Dictionary().Strings() {
				keys = append(keys, data.HashString(name))
			}
			return jobParts{source: v.SourceFunc(), op: v.ParseOp(), universe: keys}
		},
	},
}

func scaled(rate int, scale float64) int {
	n := int(float64(rate) * scale)
	if n < 100 {
		n = 100
	}
	return n
}

func workloadByName(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// mix is a splitmix64 finalizer, the benchmark's only source of randomness:
// every input is a pure function of (seed, partition, event time).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sessions is the benchmark's own source for sessions-groupby: records that
// arrive already keyed (no payload, nothing to parse), with session keys
// drawn from a Zipf distribution so reduce partitions are skewed.
type sessions struct {
	keys []uint64
	cdf  []uint64 // cumulative distribution scaled to 2^32
	rate int
	seed uint64
}

func newSessions(n int, s float64, rate int, seed uint64) *sessions {
	z := &sessions{keys: make([]uint64, n), cdf: make([]uint64, n), rate: rate, seed: seed}
	weights := make([]float64, n)
	var total float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
		total += weights[i]
	}
	var acc float64
	for i := range weights {
		z.keys[i] = mix(uint64(i) + 1)
		acc += weights[i]
		z.cdf[i] = uint64(acc / total * float64(1<<32))
	}
	z.cdf[n-1] = 1 << 32
	return z
}

func (z *sessions) sample(u uint64) int {
	u &= 1<<32 - 1
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (z *sessions) source(b dag.BatchInfo) []data.Record {
	span := b.End - b.Start
	n := int64(z.rate) * span / int64(time.Second)
	if n <= 0 {
		return nil
	}
	recs := make([]data.Record, n)
	salt := mix(uint64(b.Partition)*31 + z.seed)
	for i := range recs {
		at := b.Start + int64(i)*span/n
		recs[i] = data.Record{Key: z.keys[z.sample(mix(uint64(at)^salt))], Val: 1, Time: at}
	}
	return recs
}
