package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"runtime"
	"testing"
	"time"

	"drizzle/internal/metrics"
	"drizzle/internal/rpc"
)

// TestDriverCoreHasNoClock is the ratchet on the driver's decision core.
// recovery.go and speculation.go hold non-blocking functions of the run
// state, their input and a time handed in, so a test can script the clock
// by passing the instants it wants. Neither file may read or wait on the
// clock (time.Now, Since, Until, After, AfterFunc, NewTimer, NewTicker, Tick,
// Sleep), start a goroutine, select, name a channel type or one of the
// driver's channels, send or receive, or call the blocking waits waitTasks
// and awaitCheckpoints; those live in driver.go's shell. Two things stay
// allowed: trace spans, which stamp their own times for the trace only, and
// d.chargeCosts, the CostModel's emulated scheduling CPU.
func TestDriverCoreHasNoClock(t *testing.T) {
	clock := map[string]bool{
		"Now": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
		"NewTimer": true, "NewTicker": true, "Tick": true, "Sleep": true,
	}
	blocking := map[string]bool{
		"waitTasks": true, "awaitCheckpoints": true,
		"statusCh": true, "failCh": true, "stop": true,
	}
	for _, name := range []string{"recovery.go", "speculation.go"} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		bad := func(n ast.Node, what string) {
			t.Errorf("%s: %s in the driver's clock-free core", fset.Position(n.Pos()), what)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				bad(n, "go statement")
			case *ast.SelectStmt:
				bad(n, "select")
			case *ast.SendStmt:
				bad(n, "channel send")
			case *ast.ChanType:
				bad(n, "channel type")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					bad(n, "channel receive")
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "time" && clock[n.Sel.Name] {
					bad(n, "time."+n.Sel.Name)
				}
				if blocking[n.Sel.Name] {
					bad(n, n.Sel.Name)
				}
			}
			return true
		})
	}
}

// TestNextWakeIsEarliestDeadline: the wait loop's one timer is set to the
// earliest of the stall check, the queued retries, the next straggler scan
// and the end of a batch-close wait, with unset (zero) deadlines ignored.
func TestNextWakeIsEarliestDeadline(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	var unset time.Time
	for _, c := range []struct {
		name                   string
		stall, spec, notBefore time.Time
		retries                []int
		want                   time.Time
	}{
		{"stall alone", at(50), unset, unset, nil, at(50)},
		{"earliest retry", at(50), at(40), unset, []int{30, 10, 20}, at(10)},
		{"straggler scan", at(50), at(5), at(60), []int{30}, at(5)},
		{"batch close", at(50), at(40), at(3), []int{30}, at(3)},
		{"overdue retry", at(50), unset, unset, []int{-20}, at(-20)},
	} {
		rs := newFailpathFixture(t, ModeDrizzle, []rpc.NodeID{"w0"}, nil).rs
		rs.stallAt, rs.specAt, rs.notBefore = c.stall, c.spec, c.notBefore
		for _, ms := range c.retries {
			rs.retryQ = append(rs.retryQ, retryEntry{due: at(ms)})
		}
		if got := rs.nextWake(); !got.Equal(c.want) {
			t.Errorf("%s: nextWake = %v, want %v", c.name, got.Sub(base), c.want.Sub(base))
		}
	}
}

// TestBSPHandlesWorkerDeathDuringBatchCloseWait: a worker declared dead
// while BSP waits for its batch's input interval to close leaves the
// placement before the batch's first stage is planned, so none of the
// batch's tasks is sent to it, and the wait still lasts until the close.
func TestBSPHandlesWorkerDeathDuringBatchCloseWait(t *testing.T) {
	g := newGoldenRun(t, "bsp batch-close wait", ModeBSP, goldenWorkers, nil)
	f, rs, d := g.f, g.rs, g.d
	g.ackLaunches()
	// The dead worker owns no reduce partition, so its death moves no state
	// and queues no replay.
	var dead rpc.NodeID
	for _, w := range goldenWorkers {
		if rs.placement.Assign(1, 0) != w && rs.placement.Assign(1, 1) != w {
			dead = w
		}
	}
	closeAt := time.Now().Add(100 * time.Millisecond)
	rs.planner.StartNanos = closeAt.UnixNano() - int64(rs.planner.Job.Interval)
	d.failCh <- dead
	if _, _, err := d.runBatchBSP(rs, 0, 0); err != nil {
		t.Fatal(err)
	}
	if time.Now().Before(closeAt) {
		t.Error("runBatchBSP planned batch 0 before its input interval closed")
	}
	if rs.stats.Failures != 1 || rs.placement.Contains(dead) {
		t.Fatalf("failures %d, placement %v: the death of %s was not handled", rs.stats.Failures, rs.placement.Workers(), dead)
	}
	if descs, _ := f.net.launchesTo(dead); len(descs) > 0 {
		t.Errorf("%d tasks of batch 0 sent to %s, declared dead before the batch was planned", len(descs), dead)
	}
	if rs.remaining != 0 {
		t.Errorf("remaining %d after the batch's stage barriers", rs.remaining)
	}
}

// TestBSPStageKnownLocations: BSP plans each stage after the previous
// stage's barrier and stamps the dependency locations the barrier
// collected, read from the same lineage describe reads. A BSP plan never
// turns on worker-to-worker notification.
func TestBSPStageKnownLocations(t *testing.T) {
	g := newGoldenRun(t, "bsp known locations", ModeBSP, goldenWorkers, nil)
	f, rs := g.f, g.rs
	g.ackLaunches()
	if _, _, err := g.d.runBatchBSP(rs, 3, 0); err != nil {
		t.Fatal(err)
	}
	reduces := 0
	for _, w := range goldenWorkers {
		descs, _ := f.net.launchesTo(w)
		for _, desc := range descs {
			if desc.NotifyDownstream {
				t.Fatalf("BSP task %v pre-schedules notifications", desc.ID)
			}
			if desc.ID.Stage != 1 {
				continue
			}
			reduces++
			if len(desc.KnownLocations) != 4 {
				t.Fatalf("reduce %v has %d known locations, want 4", desc.ID, len(desc.KnownLocations))
			}
			for _, l := range desc.KnownLocations {
				if want := rs.placement.Assign(0, l.Dep.MapPartition); l.Node != want {
					t.Errorf("reduce %v reads map %d from %s, which ran on %s", desc.ID, l.Dep.MapPartition, l.Node, want)
				}
			}
		}
	}
	if reduces != 2 {
		t.Fatalf("planned %d reduce tasks, want 2", reduces)
	}
}

// TestDriverBookkeepingIsBounded: over 10,000 batches of sched-tiny's shape
// with every checkpoint durable, the task table never holds more than two
// groups, and the driver's heap after 10,000 batches is within 1 MiB of its
// heap after 1,000. Bookkeeping that gains an entry per task (240,000 of
// them here) fails the second check. The driver's task-time histograms keep
// every sample by design (metrics.Histogram), so each group starts them
// afresh: the heap check measures the bookkeeping, not the samples.
func TestDriverBookkeepingIsBounded(t *testing.T) {
	const groups = 1000
	l := newGroupLoop(t, groups)
	heapAt := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var early uint64
	for g := 0; g < groups; g++ {
		l.rs.stats.TaskRun, l.rs.stats.TaskQueue = metrics.NewHistogram(), metrics.NewHistogram()
		l.d.m.taskRunMs, l.d.m.taskQueueMs = metrics.NewHistogram(), metrics.NewHistogram()
		l.group(t)
		if live := len(l.rs.rows); live > 2*tinyGroup*l.rs.perBatch {
			t.Fatalf("after group %d: %d live rows, more than two groups of %d", g, live, tinyGroup*l.rs.perBatch)
		}
		if g == groups/10-1 {
			early = heapAt()
		}
	}
	late := heapAt()
	runtime.KeepAlive(l) // the driver under measurement stays reachable
	if late > early+1<<20 {
		t.Errorf("heap grew from %d B at %d batches to %d B at %d", early, groups/10*tinyGroup, late, groups*tinyGroup)
	}
}
