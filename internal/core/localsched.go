package core

import (
	"sync"
	"time"

	"drizzle/internal/rpc"
)

// RunnableTask is a task whose dependencies are all satisfied, handed from
// the LocalScheduler to the executor together with where to fetch each
// dependency from.
type RunnableTask struct {
	Desc      TaskDescriptor
	Locations map[Dep]rpc.NodeID
	// ReadyAt records when the task became runnable, so the executor can
	// report queueing delay.
	ReadyAt time.Time
}

// LocalScheduler implements §3.2's worker-side scheduler: pre-scheduled
// tasks sit inactive, consuming no execution slot, until (a) their upstream
// DataReady notifications have all arrived and (b) their NotBefore time has
// passed. Satisfied dependencies are remembered even before any task that
// needs them is registered, because a map task on a fast worker can finish
// before this worker's LaunchTasks bundle arrives.
type LocalScheduler struct {
	mu       sync.Mutex
	pending  map[TaskID]*pendingTask
	waiting  map[Dep][]*pendingTask // tasks blocked on a dep
	ready    map[Dep]rpc.NodeID     // satisfied deps and their holders
	runnable chan RunnableTask
	closed   bool
}

type pendingTask struct {
	desc      TaskDescriptor
	locations map[Dep]rpc.NodeID
	missing   int
	timeOK    bool
	released  bool
	timer     *time.Timer // the NotBefore gate while it is closed
}

// NewLocalScheduler returns a scheduler delivering runnable tasks on a
// channel of the given capacity.
func NewLocalScheduler(queueLen int) *LocalScheduler {
	if queueLen <= 0 {
		queueLen = 4096
	}
	return &LocalScheduler{
		pending:  make(map[TaskID]*pendingTask),
		waiting:  make(map[Dep][]*pendingTask),
		ready:    make(map[Dep]rpc.NodeID),
		runnable: make(chan RunnableTask, queueLen),
	}
}

// Runnable returns the channel of activated tasks.
func (ls *LocalScheduler) Runnable() <-chan RunnableTask { return ls.runnable }

// Add registers a pre-scheduled task. Dependencies already known (from the
// descriptor's KnownLocations or from previously received DataReady
// notifications) are counted immediately.
func (ls *LocalScheduler) Add(desc TaskDescriptor) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.closed {
		return
	}
	if pt, dup := ls.pending[desc.ID]; dup {
		// Driver resend (stall safety net): merge any newly known
		// locations into the pending task instead of dropping them.
		for _, d := range pt.desc.Deps {
			if _, have := pt.locations[d]; have {
				continue
			}
			loc, ok := desc.Location(d)
			if !ok {
				loc, ok = ls.ready[d]
			}
			if ok {
				pt.locations[d] = loc
				pt.missing--
			}
		}
		ls.maybeReleaseLocked(pt)
		return
	}
	pt := &pendingTask{
		desc:      desc,
		locations: make(map[Dep]rpc.NodeID, len(desc.Deps)),
		timeOK:    true,
	}
	for _, d := range desc.Deps {
		if loc, ok := desc.Location(d); ok {
			pt.locations[d] = loc
			continue
		}
		if loc, ok := ls.ready[d]; ok {
			pt.locations[d] = loc
			continue
		}
		pt.missing++
		ls.waiting[d] = append(ls.waiting[d], pt)
	}
	if desc.NotBefore > 0 {
		if wait := time.Until(time.Unix(0, desc.NotBefore)); wait > 0 {
			pt.timeOK = false
			pt.timer = time.AfterFunc(wait, func() { ls.timeReady(pt) })
		}
	}
	ls.pending[desc.ID] = pt
	ls.maybeReleaseLocked(pt)
}

func (ls *LocalScheduler) timeReady(pt *pendingTask) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	pt.timer = nil
	if pt.released {
		return
	}
	pt.timeOK = true
	ls.maybeReleaseLocked(pt)
}

// OnDataReady records a satisfied dependency and activates any tasks that
// were only waiting for it. Duplicate notifications (the driver relays
// DataReady during recovery, possibly repeating a worker-to-worker one)
// update the holder but never double-count.
func (ls *LocalScheduler) OnDataReady(d Dep, holder rpc.NodeID) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.closed {
		return
	}
	ls.ready[d] = holder
	waiters := ls.waiting[d]
	delete(ls.waiting, d)
	for _, pt := range waiters {
		if pt.released {
			continue
		}
		if _, have := pt.locations[d]; !have {
			pt.locations[d] = holder
			pt.missing--
		}
		ls.maybeReleaseLocked(pt)
	}
}

// maybeReleaseLocked moves a task to the runnable channel when both its
// dependency count and its time gate allow it.
func (ls *LocalScheduler) maybeReleaseLocked(pt *pendingTask) {
	if pt.released || pt.missing > 0 || !pt.timeOK {
		return
	}
	ls.dropLocked(pt)
	ls.runnable <- RunnableTask{
		Desc:      pt.desc,
		Locations: pt.locations,
		ReadyAt:   time.Now(),
	}
}

// dropLocked takes a task out of the scheduler: it leaves pending, its
// waiter entries go stale and its time gate stops.
func (ls *LocalScheduler) dropLocked(pt *pendingTask) {
	pt.released = true
	delete(ls.pending, pt.desc.ID)
	if pt.timer != nil {
		pt.timer.Stop()
		pt.timer = nil
	}
}

// Cancel removes queued tasks that have not been released yet. It returns
// the IDs actually cancelled (released/running tasks cannot be recalled).
func (ls *LocalScheduler) Cancel(ids []TaskID) []TaskID {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	var cancelled []TaskID
	for _, id := range ids {
		if pt, ok := ls.pending[id]; ok {
			ls.dropLocked(pt)
			cancelled = append(cancelled, id)
		}
	}
	return cancelled
}

// CancelAttempts removes queued tasks matching both ID and attempt number,
// returning the attempts actually cancelled. A pending entry with a
// different attempt (e.g. a speculative copy when the kill names the
// original) is left alone.
func (ls *LocalScheduler) CancelAttempts(tas []TaskAttempt) []TaskAttempt {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	var cancelled []TaskAttempt
	for _, ta := range tas {
		pt, ok := ls.pending[ta.ID]
		if !ok || pt.desc.Attempt != ta.Attempt {
			continue
		}
		ls.dropLocked(pt)
		cancelled = append(cancelled, ta)
	}
	return cancelled
}

// InvalidateHolders removes dependency locations whose holder is no longer
// alive. Pending tasks that had counted such a location go back to waiting:
// the driver will re-run the lost map task, and its new DataReady (or a
// driver relay) re-satisfies the dependency with the new holder (§3.3).
func (ls *LocalScheduler) InvalidateHolders(alive func(rpc.NodeID) bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for d, holder := range ls.ready {
		if !alive(holder) {
			delete(ls.ready, d)
		}
	}
	for _, pt := range ls.pending {
		for d, holder := range pt.locations {
			if alive(holder) {
				continue
			}
			delete(pt.locations, d)
			pt.missing++
			ls.waiting[d] = append(ls.waiting[d], pt)
		}
	}
}

// PurgeJob drops all bookkeeping (pending tasks and satisfied deps) for a
// job, used when a new run of the job is submitted: the new run's batch
// numbering restarts at zero and must not see the old run's state.
func (ls *LocalScheduler) PurgeJob(job string) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for d := range ls.ready {
		if d.Job == job {
			delete(ls.ready, d)
		}
	}
	for _, pt := range ls.pending {
		if pt.desc.Job == job {
			ls.dropLocked(pt)
		}
	}
	ls.compactWaitersLocked()
}

// compactWaitersLocked drops waiter entries of tasks no longer pending.
func (ls *LocalScheduler) compactWaitersLocked() {
	for d, waiters := range ls.waiting {
		live := waiters[:0]
		for _, pt := range waiters {
			if !pt.released {
				live = append(live, pt)
			}
		}
		if len(live) == 0 {
			delete(ls.waiting, d)
		} else {
			ls.waiting[d] = live
		}
	}
}

// Purge drops bookkeeping for satisfied dependencies of micro-batches older
// than before. Pending tasks are never purged — a pending task from an old
// batch means the group is still incomplete.
func (ls *LocalScheduler) Purge(before BatchID) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for d := range ls.ready {
		if d.Batch < before {
			delete(ls.ready, d)
		}
	}
	ls.compactWaitersLocked()
}

// PendingCount reports how many tasks are registered but not yet runnable.
func (ls *LocalScheduler) PendingCount() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return len(ls.pending)
}

// QueueDepth reports how many runnable tasks are queued waiting for an
// executor slot — the saturation signal workers publish in their telemetry
// gauges (a persistently deep queue means the worker is falling behind its
// pre-scheduled work).
func (ls *LocalScheduler) QueueDepth() int { return len(ls.runnable) }

// Close stops the scheduler; queued timers are cancelled. The runnable
// channel is not closed (executors stop via their own signal) but nothing
// more will be delivered.
func (ls *LocalScheduler) Close() {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.closed = true
	for _, pt := range ls.pending {
		ls.dropLocked(pt)
	}
}
