package engine

// Kept oracles. refRun is the driver's task bookkeeping as it was before the
// task table: nine maps keyed by task, dependency or (batch, stage), with
// the transitions of register, onStatus, resubmit, fireRetries,
// onWorkerFailure, launchSpeculative and the purge copied from that code
// (only turned from runState methods into refRun methods).
// TestTaskTableMatchesReference and FuzzTaskTable drive both with the same
// random events. Below them are the three lineage walks the driver had
// before they were folded into lostProducers, run against it by
// TestLostProducersMatchesReference.

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"drizzle/internal/checkpoint"
	"drizzle/internal/core"
	"drizzle/internal/obs"
	"drizzle/internal/rpc"
)

// refRun is the map-based bookkeeping. The embedded runState carries the
// fields the table did not replace (placement, restores, retryQ, remaining,
// the group, stats); its rows are never used.
type refRun struct {
	*runState
	outstanding map[core.TaskID]rpc.NodeID
	completed   map[core.TaskID]bool
	attempts    map[core.TaskID]int
	mapHolders  map[core.Dep]rpc.NodeID
	relay       map[core.TaskID]bool
	launched    map[core.TaskID]time.Time
	spec        map[core.TaskID]specAttempt
	specSeq     map[core.TaskID]int
	peers       map[[2]int64]*peerStat
}

func newRefRun(rs *runState) *refRun {
	return &refRun{
		runState:    rs,
		outstanding: make(map[core.TaskID]rpc.NodeID),
		completed:   make(map[core.TaskID]bool),
		attempts:    make(map[core.TaskID]int),
		mapHolders:  make(map[core.Dep]rpc.NodeID),
		relay:       make(map[core.TaskID]bool),
		launched:    make(map[core.TaskID]time.Time),
		spec:        make(map[core.TaskID]specAttempt),
		specSeq:     make(map[core.TaskID]int),
		peers:       make(map[[2]int64]*peerStat),
	}
}

func (rs *refRun) register(byWorker map[rpc.NodeID][]core.TaskDescriptor, now time.Time) {
	for w, descs := range byWorker {
		for _, desc := range descs {
			if !rs.completed[desc.ID] {
				if _, dup := rs.outstanding[desc.ID]; !dup {
					rs.remaining++
				}
				rs.outstanding[desc.ID] = w
				if _, ok := rs.launched[desc.ID]; !ok {
					rs.launched[desc.ID] = now
				}
			}
		}
	}
}

func (rs *refRun) purgeWatermark(d *Driver) core.BatchID {
	wm := rs.ckptBatch + 1
	if wm <= 0 {
		return 0
	}
	for _, key := range rs.stateKeys {
		if wm <= 0 {
			break
		}
		covered := core.BatchID(0)
		if b, ok := d.ckpt.DurableBatch(key); ok {
			covered = core.BatchID(b) + 1
		}
		if covered < wm {
			wm = covered
		}
	}
	for id := range rs.outstanding {
		if id.Batch < wm {
			wm = id.Batch
		}
	}
	return wm
}

func pruneHolders(holders map[core.Dep]rpc.NodeID, before core.BatchID) {
	for dep := range holders {
		if dep.Batch < before {
			delete(holders, dep)
		}
	}
}

func (rs *refRun) fireRetries(d *Driver, now time.Time) {
	var due []core.TaskID
	rest := rs.retryQ[:0]
	for _, e := range rs.retryQ {
		if e.due.After(now) {
			rest = append(rest, e)
			continue
		}
		if _, waiting := rs.outstanding[e.id]; waiting && !rs.completed[e.id] {
			due = append(due, e.id)
		}
	}
	rs.retryQ = rest
	if len(due) > 0 {
		due = rs.repairLineage(due)
		rs.resubmit(d, due, now)
	}
}

func (rs *refRun) repairLineage(ids []core.TaskID) []core.TaskID {
	inSet := make(map[core.TaskID]bool, len(ids))
	for _, id := range ids {
		inSet[id] = true
	}
	lost := rs.lostProducers(ids, inSet, func(id core.TaskID) bool { return rs.attempts[id] >= 2 })
	for _, p := range lost {
		delete(rs.mapHolders, core.Dep{Job: rs.jobName, Batch: p.Batch, Stage: p.Stage, MapPartition: p.Partition})
	}
	return append(ids, lost...)
}

func (rs *refRun) lostProducers(seeds []core.TaskID, inSet map[core.TaskID]bool, distrust func(core.TaskID) bool) []core.TaskID {
	var lost []core.TaskID
	frontier := append([]core.TaskID(nil), seeds...)
	for len(frontier) > 0 {
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		all := distrust != nil && distrust(id)
		for _, dep := range rs.planner.DepsOf(id.Batch, id.Stage, id.Partition) {
			if h, ok := rs.mapHolders[dep]; ok && rs.placement.Contains(h) && !all {
				continue // surviving output, reusable via lineage
			}
			producer := core.TaskID{Batch: dep.Batch, Stage: dep.Stage, Partition: dep.MapPartition}
			if inSet[producer] || !rs.completed[producer] {
				continue // being re-run anyway, or the launch path owns it
			}
			inSet[producer] = true
			lost = append(lost, producer)
			frontier = append(frontier, producer)
		}
	}
	return lost
}

func (rs *refRun) onStatus(d *Driver, st core.TaskStatus, now time.Time) error {
	if rs.completed[st.ID] {
		return nil
	}
	primary, known := rs.outstanding[st.ID]
	if !known {
		return nil
	}
	if !rs.placement.Contains(st.Worker) {
		return nil
	}
	sa, hasSpec := rs.spec[st.ID]
	fromSpec := hasSpec && st.Worker == sa.worker && st.Attempt == sa.attempt
	if !st.OK {
		if st.NeedsJob {
			_ = d.net.Send(d.id, st.Worker, core.SubmitJob{Job: rs.jobName, StartNanos: rs.planner.StartNanos})
			_ = d.net.Send(d.id, st.Worker, d.membershipUpdate(rs.placement))
		}
		key := checkpoint.StateKey{Job: rs.jobName, Stage: st.ID.Stage, Partition: st.ID.Partition}
		if _, tracked := rs.restores[key]; tracked && st.NeedsState {
			d.sendRestore(rs.runState, key)
		}
		if fromSpec {
			delete(rs.spec, st.ID)
			rs.stats.SpeculationWasted++
			d.m.specWasted.Inc()
			if !st.NeedsJob && !st.NeedsState {
				d.health.ObserveFailure(st.Worker)
			}
			return nil
		}
		if slices.ContainsFunc(rs.retryQ, func(e retryEntry) bool { return e.id == st.ID }) {
			return nil
		}
		if !st.NeedsJob && !st.NeedsState {
			d.health.ObserveFailure(st.Worker)
			rs.attempts[st.ID]++
			if rs.attempts[st.ID] >= d.cfg.MaxTaskAttempts {
				return fmt.Errorf("engine: task %v failed %d times, last: %s", st.ID, rs.attempts[st.ID], st.Err)
			}
		}
		rs.stats.Resubmits++
		d.m.resubmits.Inc()
		rs.retryQ = append(rs.retryQ, retryEntry{id: st.ID, due: now.Add(d.cfg.RetryDelay)})
		return nil
	}
	rs.completed[st.ID] = true
	delete(rs.outstanding, st.ID)
	delete(rs.launched, st.ID)
	rs.remaining--
	rs.stats.TaskRun.ObserveMillis(float64(st.RunNanos) / 1e6)
	rs.stats.TaskQueue.ObserveMillis(float64(st.QueueNanos) / 1e6)
	d.m.commits.Inc()
	d.m.taskRunMs.ObserveMillis(float64(st.RunNanos) / 1e6)
	d.m.taskQueueMs.ObserveMillis(float64(st.QueueNanos) / 1e6)
	rs.recordDuration(float64(st.RunNanos) / 1e6)
	rs.notePeerDone(st.ID, now)
	d.health.ObserveSuccess(st.Worker, time.Duration(st.RunNanos))

	if hasSpec {
		delete(rs.spec, st.ID)
		if fromSpec {
			rs.stats.SpeculationWon++
			d.m.specWon.Inc()
			d.killAttempt(rs.runState, primary, st.ID, 0)
		} else {
			rs.stats.SpeculationWasted++
			d.m.specWasted.Inc()
			d.killAttempt(rs.runState, sa.worker, st.ID, sa.attempt)
		}
	}

	stage := &rs.planner.Job.Stages[st.ID.Stage]
	if stage.Shuffle != nil {
		dep := core.Dep{Job: rs.jobName, Batch: st.ID.Batch, Stage: st.ID.Stage, MapPartition: st.ID.Partition}
		rs.mapHolders[dep] = st.Worker
		if rs.relay[st.ID] {
			delete(rs.relay, st.ID)
			d.relayDataReady(rs.runState, dep, st.Worker)
		}
	}
	return nil
}

func (rs *refRun) notePeerDone(id core.TaskID, at time.Time) {
	key := [2]int64{int64(id.Batch), int64(id.Stage)}
	ps := rs.peers[key]
	if ps == nil {
		rs.peers[key] = &peerStat{first: at, done: 1}
		return
	}
	ps.done++
}

func (rs *refRun) describe(d *Driver, id core.TaskID, attempt int) core.TaskDescriptor {
	desc := core.TaskDescriptor{
		Job:              rs.jobName,
		ID:               id,
		Attempt:          attempt,
		Deps:             rs.planner.DepsOf(id.Batch, id.Stage, id.Partition),
		NotifyDownstream: d.cfg.Mode == ModeDrizzle,
		MinState:         rs.minState(id),
	}
	if rs.planner.Job.Stages[id.Stage].IsSource() {
		desc.NotBefore = rs.planner.BatchCloseNanos(id.Batch)
	}
	if len(desc.Deps) > 0 {
		known := make([]core.DepLocation, 0, len(desc.Deps))
		for _, dep := range desc.Deps {
			if h, ok := rs.mapHolders[dep]; ok && rs.placement.Contains(h) {
				known = append(known, core.DepLocation{Dep: dep, Node: h})
			}
		}
		desc.KnownLocations = known
	}
	return desc
}

func (rs *refRun) resubmit(d *Driver, ids []core.TaskID, now time.Time) {
	byWorker := make(map[rpc.NodeID][]core.TaskDescriptor)
	for _, id := range ids {
		w := rs.placement.Assign(id.Stage, id.Partition)
		byWorker[w] = append(byWorker[w], rs.describe(d, id, 0))
		if _, dup := rs.outstanding[id]; !dup || rs.completed[id] {
			rs.remaining++
		}
		delete(rs.completed, id)
		rs.outstanding[id] = w
		rs.launched[id] = now
		if rs.planner.Job.Stages[id.Stage].Shuffle != nil {
			rs.relay[id] = true
		}
	}
	d.chargeCosts(len(ids), 0, len(byWorker))
	d.launch(byWorker, rs.purgeWatermark(d))
}

func (rs *refRun) launchSpeculative(d *Driver, id core.TaskID, primary, target rpc.NodeID) {
	rs.specSeq[id]++
	attempt := rs.specSeq[id]
	desc := rs.describe(d, id, attempt)
	d.chargeCosts(1, 0, 1)
	if err := d.net.Send(d.id, target, core.LaunchTasks{Tasks: []core.TaskDescriptor{desc}, PurgeBefore: rs.purgeWatermark(d)}); err != nil {
		return
	}
	rs.spec[id] = specAttempt{worker: target, attempt: attempt}
	rs.stats.SpeculationLaunched++
	d.m.specLaunch.Inc()
	d.health.ObserveStraggler(primary)
	rs.shrinkPending = true
}

// onWorkerFailure is the recovery half of the driver's failure handling;
// the membership half (placement, epoch, broadcast) is shared code run
// before it by the caller.
func (rs *refRun) onWorkerFailure(d *Driver, dead rpc.NodeID, oldP, newP core.Placement, now time.Time) {
	for id := range rs.outstanding {
		if rs.planner.Job.Stages[id.Stage].Shuffle != nil {
			rs.relay[id] = true
		}
	}
	if newP.NumWorkers() == 0 {
		return
	}
	for id, sa := range rs.spec {
		if sa.worker == dead {
			delete(rs.spec, id)
			rs.stats.SpeculationWasted++
			d.m.specWasted.Inc()
		}
	}
	resubmitSet := make(map[core.TaskID]bool)
	for id, w := range rs.outstanding {
		if w != dead {
			continue
		}
		if sa, ok := rs.spec[id]; ok {
			rs.outstanding[id] = sa.worker
			rs.launched[id] = now
			delete(rs.spec, id)
			rs.stats.SpeculationWon++
			d.m.specWon.Inc()
			continue
		}
		resubmitSet[id] = true
	}
	groupEnd := rs.groupFirst + core.BatchID(rs.groupSize)
	for _, key := range rs.stateKeys {
		if oldP.Assign(key.Stage, key.Partition) != dead {
			continue
		}
		restoredBatch := d.sendRestore(rs.runState, key)
		rs.restores[key] = restoredBatch
		for b := max(restoredBatch+1, 0); b < groupEnd; b++ {
			resubmitSet[core.TaskID{Batch: b, Stage: key.Stage, Partition: key.Partition}] = true
		}
	}
	for dep, h := range rs.mapHolders {
		if h == dead {
			delete(rs.mapHolders, dep)
		}
	}
	inSet := make(map[core.TaskID]bool, len(resubmitSet)+len(rs.outstanding))
	for id := range resubmitSet {
		inSet[id] = true
	}
	for id := range rs.outstanding {
		inSet[id] = true
	}
	for b := max(rs.groupFirst, 0); b < groupEnd; b++ {
		for si := range rs.planner.Job.Stages {
			for p := 0; p < rs.planner.Job.Stages[si].NumPartitions; p++ {
				if id := (core.TaskID{Batch: b, Stage: si, Partition: p}); !rs.completed[id] {
					inSet[id] = true
				}
			}
		}
	}
	seeds := make([]core.TaskID, 0, len(inSet))
	for id := range inSet {
		seeds = append(seeds, id)
	}
	for _, id := range rs.lostProducers(seeds, inSet, nil) {
		resubmitSet[id] = true
	}
	if len(resubmitSet) == 0 {
		return
	}
	ids := make([]core.TaskID, 0, len(resubmitSet))
	for id := range resubmitSet {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b core.TaskID) int {
		return cmp.Or(cmp.Compare(a.Batch, b.Batch), cmp.Compare(a.Stage, b.Stage), cmp.Compare(a.Partition, b.Partition))
	})
	rs.stats.Resubmits += len(ids)
	d.m.resubmits.Add(int64(len(ids)))
	rs.resubmit(d, ids, now)
}

// tableRow is a task's row, the zero (planned) row for one outside the
// table.
func tableRow(rs *runState, id core.TaskID) taskRow {
	if r := rs.at(id); r != nil {
		return *r
	}
	return taskRow{}
}

// refRow is the same facts read from the maps.
func (rs *refRun) refRow(id core.TaskID) taskRow {
	r := taskRow{attempts: rs.attempts[id], holder: rs.mapHolders[core.Dep{Job: rs.jobName, Batch: id.Batch, Stage: id.Stage, MapPartition: id.Partition}]}
	if w, ok := rs.outstanding[id]; ok {
		r.state, r.worker = taskOutstanding, w
	} else if rs.completed[id] {
		r.state = taskDone
	}
	return r
}

// tablePair runs one driver on the task table and one on refRun, over the
// three-stage job and four workers, with a shared checkpoint store.
type tablePair struct {
	tb     testing.TB
	t, r   *failpathFixture
	ref    *refRun
	now    time.Time
	next   core.BatchID // first batch not planned yet
	seq    int64
	failed bool // a task hit MaxTaskAttempts; the run is over
}

func newTablePair(tb testing.TB) *tablePair {
	workers := []rpc.NodeID{"w0", "w1", "w2", "w3"}
	fixture := func() *failpathFixture {
		f := newFailpathFixture(tb, ModeDrizzle, workers, threeStageJob(nil))
		f.driver.log = obs.Discard()
		f.driver.cfg.MaxTaskAttempts = 20
		f.rs.groupFirst, f.rs.groupSize = 0, 0
		f.rs.numBatches = 64
		return f
	}
	p := &tablePair{tb: tb, t: fixture(), r: fixture(), now: time.Unix(0, 1_000_000)}
	p.r.driver.ckpt = p.t.driver.ckpt
	p.ref = newRefRun(p.r.rs)
	return p
}

// ops reads the event stream: each event is a kind byte and argument bytes,
// and a stream that runs out reads zeros.
type ops struct{ b []byte }

func (o *ops) next(n int) int {
	if len(o.b) == 0 {
		return 0
	}
	v := int(o.b[0])
	o.b = o.b[1:]
	return v % n
}

// pick returns a task of a planned batch at or above the table's base.
func (p *tablePair) pick(o *ops) core.TaskID {
	lo := p.t.rs.base
	span := int(p.next - lo)
	if span <= 0 {
		return core.TaskID{Batch: lo}
	}
	b := lo + core.BatchID(o.next(span))
	s := o.next(len(p.t.rs.planner.Job.Stages))
	return core.TaskID{Batch: b, Stage: s, Partition: o.next(p.t.rs.planner.Job.Stages[s].NumPartitions)}
}

// step applies one event to both drivers and compares what they did.
func (p *tablePair) step(o *ops) {
	tr, td, ref, rd := p.t.rs, p.t.driver, p.ref, p.r.driver
	p.now = p.now.Add(time.Duration(1+o.next(50)) * time.Millisecond)
	now := p.now
	// Event kinds: 0 a group, 1–6 a success, 7 a failure, 8 a missing
	// precondition, 9 the retry timer, 10 a resubmit, 11 a death, 12 a
	// checkpoint and purge, 13 a speculative copy.
	kind := o.next(14)
	what := ""
	switch {
	case kind == 0 && p.next < tr.numBatches: // plan and launch a group
		g := 1 + o.next(3)
		g = min(g, int(tr.numBatches-p.next))
		what = fmt.Sprintf("group %d+%d", p.next, g)
		tr.groupFirst, tr.groupSize = p.next, g
		ref.groupFirst, ref.groupSize = p.next, g
		byWorker, _ := tr.planner.PlanGroup(tr.placement, p.next, g, p.seq)
		td.stampFloors(tr, byWorker, false)
		tr.register(byWorker, now)
		td.launch(byWorker, td.purgeWatermark(tr))
		byWorker, _ = ref.planner.PlanGroup(ref.placement, p.next, g, p.seq)
		rd.stampFloors(ref.runState, byWorker, false)
		ref.register(byWorker, now)
		rd.launch(byWorker, ref.purgeWatermark(rd))
		p.next += core.BatchID(g)
		p.seq++
	case kind >= 1 && kind <= 8 && p.next > tr.base: // a status report
		id := p.pick(o)
		// Most successes are for the oldest outstanding task, so batches
		// complete and the purge watermark moves.
		if i := slices.IndexFunc(tr.rows, func(r taskRow) bool { return r.state == taskOutstanding }); i >= 0 && kind <= 6 && o.next(4) > 0 {
			id = tr.taskAt(i)
		}
		st := core.TaskStatus{ID: id, Worker: ref.outstanding[id]}
		switch o.next(4) {
		case 0:
			st.Worker = rpc.NodeID(fmt.Sprintf("w%d", o.next(4)))
		case 1:
			if sa, ok := ref.spec[id]; ok {
				st.Worker, st.Attempt = sa.worker, sa.attempt
			}
		}
		switch kind {
		default:
			st.OK = true
		case 7:
			st.Err = "failed"
		case 8:
			st.NeedsState, st.NeedsJob = o.next(2) == 0, o.next(3) == 0
			st.Err = "precondition"
		}
		what = fmt.Sprintf("status %+v", st)
		errT, errR := td.onStatus(tr, st, now), ref.onStatus(rd, st, now)
		if (errT == nil) != (errR == nil) {
			p.tb.Fatalf("%s: onStatus error %v, reference %v", what, errT, errR)
		}
		p.failed = errT != nil
	case kind == 9: // the retry timer
		what = "fireRetries"
		later := now.Add(td.cfg.RetryDelay)
		td.fireRetries(tr, later)
		ref.fireRetries(rd, later)
	case kind == 10 && p.next > tr.base: // a resubmit, as the stall net or a replay makes
		ids := []core.TaskID{p.pick(o), p.pick(o)}
		what = fmt.Sprintf("resubmit %v", ids)
		td.resubmit(tr, ids, now)
		ref.resubmit(rd, ids, now)
	case kind == 11 && tr.placement.NumWorkers() > 1: // a worker dies
		dead := tr.placement.Workers()[o.next(tr.placement.NumWorkers())]
		what = "death of " + string(dead)
		oldP := ref.placement
		td.onWorkerFailure(tr, dead, now)
		p.fail(dead, now)
		ref.onWorkerFailure(rd, dead, oldP, ref.placement, now)
	case kind == 12: // a durable checkpoint, then the purge
		if c := tr.ckptBatch + core.BatchID(o.next(3)); c < p.next {
			tr.ckptBatch, ref.ckptBatch = c, c
			for _, key := range tr.stateKeys {
				b := int64(c) - int64(o.next(2))
				if err := td.ckpt.Put(&checkpoint.Snapshot{Key: key, Batch: b}); err != nil {
					p.tb.Fatal(err)
				}
			}
		}
		wm, refWM := td.purgeWatermark(tr), ref.purgeWatermark(rd)
		what = fmt.Sprintf("purge at %d", wm)
		if wm != refWM {
			p.tb.Fatalf("purge watermark %d, reference %d", wm, refWM)
		}
		tr.dropBefore(wm)
		pruneHolders(ref.mapHolders, refWM)
	case kind == 13: // a speculative copy of an outstanding task
		var out []core.TaskID
		for i := range tr.rows {
			if tr.rows[i].state == taskOutstanding {
				out = append(out, tr.taskAt(i))
			}
		}
		if len(out) == 0 {
			return
		}
		id := out[o.next(len(out))]
		w := ref.outstanding[id]
		live := tr.placement.Workers()
		target := live[o.next(len(live))]
		if _, spec := ref.spec[id]; spec || target == w {
			return
		}
		what = fmt.Sprintf("speculate %v on %s", id, target)
		td.launchSpeculative(tr, id, w, target)
		ref.launchSpeculative(rd, id, w, target)
	default:
		return
	}
	p.compare(what)
}

// fail runs the reference driver's membership half of onWorkerFailure.
func (p *tablePair) fail(dead rpc.NodeID, now time.Time) {
	d, rs := p.r.driver, p.ref
	d.mu.Lock()
	delete(d.workers, dead)
	d.health.Remove(dead)
	d.epoch++
	var weights map[rpc.NodeID]float64
	if d.cfg.Speculation {
		weights = d.health.Weights(now, d.liveLocked())
	}
	newP := core.NewWeightedPlacement(d.epoch, d.liveLocked(), weights)
	d.placement = newP
	d.mu.Unlock()
	rs.stats.Failures++
	rs.shrinkPending = true
	rs.placement = newP
	d.broadcast(d.membershipUpdate(newP))
}

// compare checks remaining, every task at or above the table's base, and
// the sends of the step.
func (p *tablePair) compare(what string) {
	tr, ref := p.t.rs, p.ref
	if tr.remaining != ref.remaining {
		p.tb.Fatalf("after %s: remaining %d, reference %d", what, tr.remaining, ref.remaining)
	}
	for b := tr.base; b < max(p.next, tr.base+core.BatchID(tr.batches())); b++ {
		for s := range tr.planner.Job.Stages {
			for q := 0; q < tr.planner.Job.Stages[s].NumPartitions; q++ {
				id := core.TaskID{Batch: b, Stage: s, Partition: q}
				got, want := tableRow(tr, id), ref.refRow(id)
				if got.state != want.state || got.worker != want.worker || got.holder != want.holder || got.attempts != want.attempts {
					p.tb.Fatalf("after %s: task %v is %+v, reference %+v", what, id, got, want)
				}
			}
		}
	}
	if got, want := p.t.net.drain(), p.r.net.drain(); !slices.Equal(got, want) {
		p.tb.Fatalf("after %s: sends\n%v\nreference\n%v", what, got, want)
	}
}

// drain returns the canonical sends recorded since the last drain, sorted.
func (n *recordingNet) drain() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.sends))
	for _, s := range n.sends {
		out = append(out, canonicalSend(s))
	}
	n.sends = nil
	sort.Strings(out)
	return out
}

func runTaskTable(tb testing.TB, events []byte) {
	p := newTablePair(tb)
	o := &ops{b: events}
	for len(o.b) > 0 && !p.failed {
		p.step(o)
	}
}

// TestTaskTableMatchesReference drives the task table and the map-based
// bookkeeping it replaced through 200 seeded random event sequences —
// group launches, OK, failed and missing-precondition reports, retries,
// resubmits, worker deaths, checkpoints with purges and speculative copies
// — and requires the same bookkeeping and the same sends after every event.
func TestTaskTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	for i := 0; i < 200; i++ {
		events := make([]byte, 2000)
		rng.Read(events)
		runTaskTable(t, events)
	}
}

func FuzzTaskTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 7, 2})
	f.Add([]byte{0, 2, 0, 1, 9, 2, 0, 0, 0, 6, 1, 2, 4, 5, 5, 1, 2, 3})
	f.Fuzz(func(t *testing.T, events []byte) { runTaskTable(t, events) })
}

// Below: the three lineage walks lostProducers replaced, on refRun's maps.

// refRepairLineage is the retry path's walk: a task on its third or later
// attempt distrusts every recorded holder, and the lineage entry of each
// producer added is deleted.
func refRepairLineage(rs *refRun, ids []core.TaskID) []core.TaskID {
	inSet := make(map[core.TaskID]bool, len(ids))
	for _, id := range ids {
		inSet[id] = true
	}
	frontier := append([]core.TaskID(nil), ids...)
	for len(frontier) > 0 {
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		distrust := rs.attempts[id] >= 2
		for _, dep := range rs.planner.DepsOf(id.Batch, id.Stage, id.Partition) {
			if h, ok := rs.mapHolders[dep]; ok && rs.placement.Contains(h) && !distrust {
				continue // surviving output, reusable via lineage
			}
			producer := core.TaskID{Batch: dep.Batch, Stage: dep.Stage, Partition: dep.MapPartition}
			if inSet[producer] || !rs.completed[producer] {
				continue // being resent anyway, or the launch path owns it
			}
			delete(rs.mapHolders, dep)
			inSet[producer] = true
			ids = append(ids, producer)
			frontier = append(frontier, producer)
		}
	}
	return ids
}

// refResendWalk is the stall safety net's walk: it returns every task
// resendIncomplete re-sends.
func refResendWalk(rs *refRun) []core.TaskID {
	ids := make([]core.TaskID, 0, rs.remaining)
	inSet := make(map[core.TaskID]bool, rs.remaining)
	for id := range rs.outstanding {
		ids = append(ids, id)
		inSet[id] = true
	}
	// Lineage check: a stalled task can be waiting on a dependency whose
	// committed holder has since died — resending the descriptor alone would
	// omit that location forever. Transitively re-run such producers along
	// with the stalled tasks.
	frontier := append([]core.TaskID(nil), ids...)
	for len(frontier) > 0 {
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, dep := range rs.planner.DepsOf(id.Batch, id.Stage, id.Partition) {
			if h, ok := rs.mapHolders[dep]; ok && rs.placement.Contains(h) {
				continue // surviving output, reusable via lineage
			}
			producer := core.TaskID{Batch: dep.Batch, Stage: dep.Stage, Partition: dep.MapPartition}
			if inSet[producer] || !rs.completed[producer] {
				continue // being resent anyway, or the launch path owns it
			}
			inSet[producer] = true
			ids = append(ids, producer)
			frontier = append(frontier, producer)
		}
	}
	return ids
}

// refFailureWalk is block (b) of worker-failure handling: given the resubmit
// set blocks (a) and (c) built and the post-failure placement in
// rs.placement, it drops the dead worker's lineage entries and adds the
// producers to re-run.
func refFailureWalk(rs *refRun, dead rpc.NodeID, resubmitSet map[core.TaskID]bool) {
	groupEnd := rs.groupFirst + core.BatchID(rs.groupSize)
	for dep, h := range rs.mapHolders {
		if h == dead {
			delete(rs.mapHolders, dep)
		}
	}
	// Seed the frontier with the deps of everything that will (re)run or has
	// yet to run. Tasks of the group not launched yet matter too: BSP mode
	// launches stage by stage, so a map output can commit, lose its holder to
	// this failure, and only afterwards be demanded by the next stage's plan —
	// with no launched consumer to witness the loss. Walking the whole group
	// re-runs such producers now instead of wedging the later stage.
	seen := make(map[core.TaskID]bool, len(resubmitSet)+len(rs.outstanding))
	frontier := make([]core.TaskID, 0, len(resubmitSet)+len(rs.outstanding))
	for id := range resubmitSet {
		seen[id] = true
		frontier = append(frontier, id)
	}
	for id := range rs.outstanding {
		if !seen[id] {
			seen[id] = true
			frontier = append(frontier, id)
		}
	}
	for b := rs.groupFirst; b < groupEnd; b++ {
		if b < 0 {
			continue
		}
		for si := range rs.planner.Job.Stages {
			for p := 0; p < rs.planner.Job.Stages[si].NumPartitions; p++ {
				id := core.TaskID{Batch: b, Stage: si, Partition: p}
				if seen[id] || rs.completed[id] {
					continue
				}
				seen[id] = true
				frontier = append(frontier, id)
			}
		}
	}
	for len(frontier) > 0 {
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, dep := range rs.planner.DepsOf(id.Batch, id.Stage, id.Partition) {
			if h, ok := rs.mapHolders[dep]; ok && rs.placement.Contains(h) {
				continue // surviving output, reusable via lineage
			}
			producer := core.TaskID{Batch: dep.Batch, Stage: dep.Stage, Partition: dep.MapPartition}
			if resubmitSet[producer] {
				continue
			}
			if _, running := rs.outstanding[producer]; running && rs.outstanding[producer] != dead {
				continue // already in flight on a live worker
			}
			if _, running := rs.outstanding[producer]; !running && !rs.completed[producer] {
				continue // never produced nor launched; the normal launch path runs it
			}
			resubmitSet[producer] = true
			frontier = append(frontier, producer)
		}
	}
}

// randomRunState fills a fixture over threeStageJob, batches 0–3, with random
// completed and outstanding tasks (never both), lineage entries on live and
// departed workers, attempt counts, a group and terminal snapshots. The
// reference holds the same tasks in its maps, over a copy of the run state.
func randomRunState(t *testing.T, rng *rand.Rand) (*failpathFixture, []rpc.NodeID, *refRun) {
	pool := []rpc.NodeID{"w0", "w1", "w2", "w3"}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	workers := append([]rpc.NodeID(nil), pool[:2+rng.Intn(3)]...)
	sort.Slice(workers, func(i, j int) bool { return workers[i] < workers[j] })
	f := newFailpathFixture(t, ModeDrizzle, workers, threeStageJob(nil))
	f.driver.log = obs.Discard()
	rs := f.rs
	holders := append([]rpc.NodeID{"gone"}, workers...)
	const batches = 4
	rs.groupFirst = core.BatchID(rng.Intn(batches))
	rs.groupSize = 1 + rng.Intn(batches-int(rs.groupFirst))
	c := *rs
	c.restores = make(map[checkpoint.StateKey]core.BatchID)
	c.rows, c.peers = nil, nil
	ref := newRefRun(&c)
	for b := core.BatchID(0); b < batches; b++ {
		for si := range rs.planner.Job.Stages {
			stage := &rs.planner.Job.Stages[si]
			for p := 0; p < stage.NumPartitions; p++ {
				id := core.TaskID{Batch: b, Stage: si, Partition: p}
				r := rs.row(id)
				switch x := rng.Intn(8); {
				case x < 4:
					ref.completed[id] = true
					r.state = taskDone
				case x < 6:
					w := workers[rng.Intn(len(workers))]
					ref.outstanding[id] = w
					r.state, r.worker = taskOutstanding, w
					rs.remaining++
					ref.remaining++
				}
				if stage.Shuffle != nil && rng.Intn(10) < 8 {
					h := holders[rng.Intn(len(holders))]
					ref.mapHolders[core.Dep{Job: rs.jobName, Batch: b, Stage: si, MapPartition: p}] = h
					r.holder = h
				}
				if rng.Intn(3) == 0 {
					r.attempts = rng.Intn(4)
					ref.attempts[id] = r.attempts
				}
			}
		}
	}
	for p := 0; p < rs.planner.Job.Stages[2].NumPartitions; p++ {
		if b := rng.Intn(batches+1) - 1; b >= 0 {
			key := checkpoint.StateKey{Job: rs.jobName, Stage: 2, Partition: p}
			if err := f.driver.ckpt.Put(&checkpoint.Snapshot{Key: key, Batch: int64(b)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return f, workers, ref
}

// holdersOf returns the table's lineage as the reference keys it.
func holdersOf(rs *runState) map[core.Dep]rpc.NodeID {
	out := make(map[core.Dep]rpc.NodeID)
	for i := range rs.rows {
		if h := rs.rows[i].holder; h != "" {
			id := rs.taskAt(i)
			out[core.Dep{Job: rs.jobName, Batch: id.Batch, Stage: id.Stage, MapPartition: id.Partition}] = h
		}
	}
	return out
}

func taskSet(ids []core.TaskID) map[core.TaskID]bool {
	s := make(map[core.TaskID]bool, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// launchedTasks returns every task the recording network saw launched.
func launchedTasks(n *recordingNet) map[core.TaskID]bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[core.TaskID]bool)
	for _, s := range n.sends {
		if lt, ok := s.msg.(core.LaunchTasks); ok {
			for _, desc := range lt.Tasks {
				out[desc.ID] = true
			}
		}
	}
	return out
}

// TestLostProducersMatchesReference: on 2,000 seeded random run states, each
// caller of lostProducers — the retry path, the stall safety net and
// worker-failure handling — re-runs exactly the tasks the walk it replaced
// re-ran, and leaves the same lineage table.
func TestLostProducersMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for i := 0; i < 2000; i++ {
		// Retry path: the retried tasks are outstanding ones, as in
		// fireRetries.
		f, _, ref := randomRunState(t, rng)
		var retry []core.TaskID
		for i := range f.rs.rows {
			if f.rs.rows[i].state == taskOutstanding && rng.Intn(2) == 0 {
				retry = append(retry, f.rs.taskAt(i))
			}
		}
		want := taskSet(refRepairLineage(ref, append([]core.TaskID(nil), retry...)))
		got := taskSet(f.driver.repairLineage(f.rs, retry))
		if !maps.Equal(got, want) || !maps.Equal(holdersOf(f.rs), ref.mapHolders) {
			t.Fatalf("state %d: repairLineage re-runs %v, holders %v; reference %v, holders %v",
				i, got, holdersOf(f.rs), want, ref.mapHolders)
		}

		// Stall safety net.
		f, _, ref = randomRunState(t, rng)
		want = taskSet(refResendWalk(ref))
		f.driver.resendIncomplete(f.rs, time.Now())
		if got := launchedTasks(f.net); !maps.Equal(got, want) || !maps.Equal(holdersOf(f.rs), ref.mapHolders) {
			t.Fatalf("state %d: resendIncomplete re-sends %v; reference %v", i, got, want)
		}

		// Worker failure: blocks (a) and (c) build the resubmit set the
		// reference walk starts from.
		f, workers, ref := randomRunState(t, rng)
		dead := workers[rng.Intn(len(workers))]
		oldP := ref.placement
		var live []rpc.NodeID
		for _, w := range workers {
			if w != dead {
				live = append(live, w)
			}
		}
		ref.placement = core.NewPlacement(f.driver.epoch+1, live)
		resubmitSet := make(map[core.TaskID]bool)
		for id, w := range ref.outstanding {
			if w == dead {
				resubmitSet[id] = true
			}
		}
		groupEnd := ref.groupFirst + core.BatchID(ref.groupSize)
		for p := 0; p < ref.planner.Job.Stages[2].NumPartitions; p++ {
			if oldP.Assign(2, p) != dead {
				continue
			}
			restored := core.BatchID(-1)
			if snap, ok, _ := f.driver.ckpt.Latest(checkpoint.StateKey{Job: ref.jobName, Stage: 2, Partition: p}); ok {
				restored = core.BatchID(snap.Batch)
			}
			for b := max(restored+1, 0); b < groupEnd; b++ {
				resubmitSet[core.TaskID{Batch: b, Stage: 2, Partition: p}] = true
			}
		}
		refFailureWalk(ref, dead, resubmitSet)
		f.driver.onWorkerFailure(f.rs, dead, time.Now())
		if got := launchedTasks(f.net); !maps.Equal(got, resubmitSet) || !maps.Equal(holdersOf(f.rs), ref.mapHolders) {
			t.Fatalf("state %d: failure of %s re-runs %v; reference %v", i, dead, got, resubmitSet)
		}
	}
}
