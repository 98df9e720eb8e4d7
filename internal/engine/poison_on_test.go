//go:build poisonscratch

package engine

import (
	"testing"
	"time"

	"drizzle/internal/core"
	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/shuffle"
	"drizzle/internal/workload"
)

// TestPoisonSwitchIsLive proves that a -tags poisonscratch run tests what it
// says: a sink that breaks the contract by keeping the slice it was lent
// reads poison once it has returned, the slot's inflate buffer is
// scribbled over when the task ends, and the block writer's key dictionary
// after every block it stores. Without this, a poison run in which the
// hooks had quietly become no-ops would pass just the same.
func TestPoisonSwitchIsLive(t *testing.T) {
	job := shuffleJob(nil, 1, 1, false)
	job.Stages[1].Window.Size = job.Interval // batch 0 closes window [0, interval)
	var kept []data.Record
	job.Stages[1].Sink = func(_ int64, _ int, out []data.Record) { kept = out }
	w, sc := bareWorker(t, job)

	recs := make([]data.Record, 2000)
	for i := range recs {
		recs[i] = data.Record{Key: uint64(i % 10), Val: 1, Time: int64(i) % int64(time.Millisecond)}
	}
	// Ten keys make a dictionary block, which is stored plain: the block is
	// wrapped in the snappy envelope by hand so that the task inflates it.
	w.store.PutRaw(shuffle.BlockID{Job: job.Name}, data.CompressBatch(data.EncodeBatchColumnar(nil, recs), 1))
	if _, err := w.execute(reduceTask(w, job, 0, 1), sc, nil, 0); err != nil {
		t.Fatal(err)
	}
	if len(kept) != 10 {
		t.Fatalf("sink saw %d records, want the 10 keys of the closed window", len(kept))
	}
	for _, r := range kept {
		if p := data.PoisonedRecord; r.Key != p.Key || r.Val != p.Val || r.Time != p.Time {
			t.Fatalf("a record the sink kept past its return still reads %+v", r)
		}
	}
	if len(sc.inflate) == 0 {
		t.Fatal("the task's compressed block was not inflated into the slot's buffer")
	}
	sc.release()
	for i, b := range sc.inflate[:cap(sc.inflate)] {
		if b != 0xDB {
			t.Fatalf("inflate[%d] = %#x after release", i, b)
		}
	}

	// The source side: an op that keeps a heartbeat past its task — the
	// record and the payload the source rendered into the slot's scratch —
	// reads poison once the task has ended.
	v := workload.NewVideo(workload.VideoConfig{Sessions: 16, EventsPerSecPerPartition: 1_000_000, ZipfS: 1.2, WindowSize: time.Second, Seed: 3})
	parse := v.ParseOp()
	var keptRecs []data.Record
	var payload []byte
	job = shuffleJob(v.SourceFunc(), 1, 1, false)
	job.Stages[0].Ops = []dag.NarrowOp{func(in []data.Record) []data.Record {
		keptRecs, payload = in, in[len(in)-1].Payload
		return parse(in)
	}}
	w, sc = bareWorker(t, job)
	if _, err := w.execute(core.RunnableTask{Desc: core.TaskDescriptor{Job: job.Name, ID: core.TaskID{Stage: 0}}}, sc, nil, 0); err != nil {
		t.Fatal(err)
	}
	if len(payload) == 0 || payload[0] != '{' {
		t.Fatalf("the op saw payload %q, want a heartbeat", payload)
	}
	// The map side: the block writer's key dictionary, index and time
	// scratch is scribbled after every Put, before the task has ended.
	if !sc.blocks.KeysPoisoned() {
		t.Fatal("the block writer's key dictionary scratch was not scribbled after its Put")
	}
	sc.release()
	for i, b := range payload {
		if b != 0xDB {
			t.Fatalf("byte %d of a payload kept past its task reads %#x", i, b)
		}
	}
	for _, r := range keptRecs {
		if p := data.PoisonedRecord; r.Key != p.Key || r.Val != p.Val || r.Time != p.Time || r.Payload != nil {
			t.Fatalf("a source record kept past its task still reads %+v", r)
		}
	}
}
