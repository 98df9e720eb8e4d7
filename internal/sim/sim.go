// Package sim is a discrete-event simulator of the scheduling protocols —
// per-micro-batch BSP (Spark), pre-scheduling, and group scheduling
// (Drizzle) — over clusters of 4–128 machines. It substitutes the paper's
// 128-node EC2 cluster for the weak-scaling microbenchmarks (Figures 4a,
// 4b, 5a, 5b): the protocol logic (who serializes what when, which
// barriers exist, who notifies whom) is executed faithfully under a
// virtual clock, with calibrated control-plane costs standing in for JVM
// serialization and EC2 networking (see DESIGN.md, substitutions).
//
// The simulator is a classic event-driven design: a priority queue of
// timestamped events, a single-server FIFO queue modeling the driver's
// scheduling thread, and k-server queues modeling each worker's executor
// slots.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Costs are the calibrated control-plane parameters. Defaults reproduce
// the paper's observation that per-micro-batch scheduling reaches ~200 ms
// at 128 machines while Drizzle with group 100 stays under ~5 ms.
type Costs struct {
	// Decision is driver CPU per task for a full scheduling decision:
	// locality, assignment, serialization (paid per task per scheduling
	// event — every micro-batch in BSP, once per group in Drizzle).
	Decision time.Duration
	// Copy is driver CPU per additional task instance when scheduling
	// decisions are reused across a group's micro-batches (§3.1).
	Copy time.Duration
	// Status is driver CPU per task completion status processed.
	Status time.Duration
	// RPC is the one-way network latency of a control message.
	RPC time.Duration
	// Launch is the worker-side cost to deserialize and start one task.
	Launch time.Duration
	// FetchBase and FetchPerMap model a reduce task's shuffle fetch time:
	// FetchBase + FetchPerMap * numMapTasks (connection setup dominates at
	// scale, as §5.2.2 observes).
	FetchBase   time.Duration
	FetchPerMap time.Duration
}

// DefaultCosts returns the calibration used by the experiments.
func DefaultCosts() Costs {
	return Costs{
		Decision:    350 * time.Microsecond,
		Copy:        2 * time.Microsecond,
		Status:      2 * time.Microsecond,
		RPC:         500 * time.Microsecond,
		Launch:      30 * time.Microsecond,
		FetchBase:   2 * time.Millisecond,
		FetchPerMap: 80 * time.Microsecond,
	}
}

// Workload describes the simulated job: a map stage sized one task per
// core (weak scaling) and an optional reduce stage.
type Workload struct {
	// MapCompute is the per-map-task execution time (<1 ms in Figure 4a,
	// ~100x that in Figure 5a).
	MapCompute time.Duration
	// ReduceTasks is the reduce-stage width; 0 means single-stage.
	ReduceTasks int
	// ReduceCompute is the per-reduce-task execution time excluding the
	// modeled fetch cost.
	ReduceCompute time.Duration
}

// Schedule selects the protocol.
type Schedule int

const (
	// ScheduleBSP is per-micro-batch, per-stage driver scheduling with
	// stage barriers (Spark).
	ScheduleBSP Schedule = iota
	// ScheduleDrizzle is pre-scheduling plus group scheduling; Group 1
	// degenerates to pre-scheduling only.
	ScheduleDrizzle
)

// Config is one simulation setup.
type Config struct {
	Machines int
	Slots    int // executor slots (cores) per machine; tasks/batch = Machines*Slots
	Workload Workload
	Costs    Costs
	Schedule Schedule
	Group    int // micro-batches per scheduling group (Drizzle)
	Batches  int // micro-batches to simulate
}

// Result summarizes a simulation.
type Result struct {
	// TimePerBatch is makespan / batches — the metric of Figures 4a/5a/5b.
	TimePerBatch time.Duration
	// Makespan is the total virtual time for all batches.
	Makespan time.Duration
	// Per-map-task breakdown means (Figure 4b).
	SchedulerDelay time.Duration // driver-side delay before the launch message left
	TaskTransfer   time.Duration // network + worker-side launch cost
	Compute        time.Duration // execution time
}

// event is a scheduled callback.
type event struct {
	at  int64
	seq int64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// sim is the event loop plus the two queueing resources.
type sim struct {
	now  int64
	seq  int64
	pq   eventHeap
	stop bool

	driverBusyUntil int64     // single-server FIFO: the driver scheduling thread
	slotFree        [][]int64 // per machine, per slot: time the slot frees up
	nicFree         []int64   // per machine: shuffle-fetch NIC availability
}

func newSim(machines, slots int) *sim {
	s := &sim{
		slotFree: make([][]int64, machines),
		nicFree:  make([]int64, machines),
	}
	for i := range s.slotFree {
		s.slotFree[i] = make([]int64, slots)
	}
	return s
}

// at schedules fn at absolute virtual time t (>= now).
func (s *sim) at(t int64, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.pq, &event{at: t, seq: s.seq, fn: fn})
}

// driverWork enqueues d of work on the driver thread and calls fn when it
// completes. FIFO ordering across calls models the serial scheduler loop.
func (s *sim) driverWork(d time.Duration, fn func()) {
	start := s.driverBusyUntil
	if start < s.now {
		start = s.now
	}
	s.driverBusyUntil = start + int64(d)
	s.at(s.driverBusyUntil, fn)
}

// runOnSlot starts d of work on the earliest-free slot of machine m and
// calls fn(startTime) at start and done(endTime) at completion.
func (s *sim) runOnSlot(m int, d time.Duration, started func(int64), done func(int64)) {
	slots := s.slotFree[m]
	best := 0
	for i := 1; i < len(slots); i++ {
		if slots[i] < slots[best] {
			best = i
		}
	}
	start := slots[best]
	if start < s.now {
		start = s.now
	}
	end := start + int64(d)
	slots[best] = end
	if started != nil {
		s.at(start, func() { started(start) })
	}
	s.at(end, func() { done(end) })
}

// fetchThenRun models a reduce task: the shuffle fetch serializes on the
// machine's NIC (fetch-heavy tasks do not pipeline freely — the network
// interface is the bottleneck §5.2.2 observes), then launch+compute runs
// on an executor slot.
func (s *sim) fetchThenRun(m int, fetch, rest time.Duration, done func(int64)) {
	start := s.nicFree[m]
	if start < s.now {
		start = s.now
	}
	s.nicFree[m] = start + int64(fetch)
	s.at(s.nicFree[m], func() {
		s.runOnSlot(m, rest, nil, done)
	})
}

// run drains the event queue.
func (s *sim) run() {
	for len(s.pq) > 0 && !s.stop {
		e := heap.Pop(&s.pq).(*event)
		s.now = e.at
		e.fn()
	}
}

// Validate checks a Config.
func (c Config) Validate() error {
	switch {
	case c.Machines <= 0 || c.Slots <= 0:
		return fmt.Errorf("sim: machines and slots must be positive")
	case c.Batches <= 0:
		return fmt.Errorf("sim: batches must be positive")
	case c.Schedule == ScheduleDrizzle && c.Group <= 0:
		return fmt.Errorf("sim: drizzle schedule needs a positive group size")
	case c.Workload.ReduceTasks < 0:
		return fmt.Errorf("sim: negative reduce tasks")
	}
	return nil
}
