// Command benchmark is the repository's benchmark: four fixed-rate
// workloads on a driver and workers that share one process but talk over
// loopback TCP, measured end to end (untraced) and layer by layer (traced).
// See README.md in this directory for the metrics and how to read them.
//
//	bash benchmark/run.sh                       # all workloads, end to end
//	bash benchmark/run.sh -workload sched-tiny  # one workload
//	bash benchmark/run.sh -trace 1              # per-layer metrics + trace dump
//	bash benchmark/run.sh -repeat 10 -out r.json
//	bash benchmark/run.sh -diff old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// processStart anchors the first set-up trial at the start of the process,
// so the runtime's own start-up is part of set-up time.
var processStart = time.Now()

const (
	defaultSeconds = 20
	defaultWarmup  = 3 * time.Second
	// setupTrials is how many times set-up is measured per run; the median
	// is reported, so one slow trial does not move the metric.
	setupTrials = 5
	traceDir    = ".bench_build"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four)")
		seed         = flag.Uint64("seed", 1, "seed of every generated input")
		seconds      = flag.Int("seconds", defaultSeconds, "length of the measured interval")
		traceMode    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the layer replay and a traced cluster run")
		repeat       = flag.Int("repeat", 1, "back-to-back runs per workload (seed, seed+1, ...); prints median, quartiles and spread per metric")
		out          = flag.String("out", "", "also write the report document to this file")
		diff         = flag.Bool("diff", false, "compare two report documents: -diff old.json new.json")
		smoke        = flag.Bool("smoke", false, "2 s per workload at a tenth of the rate, correctness only")
		child        = flag.Bool("child", false, "make the one selected run in this process (what the benchmark starts for every run)")
	)
	flag.Parse()
	// The engine logs through slog; stdout carries only metric lines and
	// the final JSON document.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	if *diff {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff needs two files: old.json new.json"))
		}
		regressed, err := diffReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	specs := workloads
	if *workloadName != "" {
		spec, err := workloadByName(*workloadName)
		if err != nil {
			fatal(err)
		}
		specs = []*workloadSpec{spec}
	}
	if *seconds < 1 || *repeat < 1 {
		fatal(fmt.Errorf("-seconds and -repeat must be at least 1"))
	}

	// Every run is made by a child process of its own, on one CPU: children
	// inherit the affinity this process gives itself here.
	if *child && len(specs)*(*repeat) != 1 {
		fatal(fmt.Errorf("-child makes exactly one run: give -workload and leave -repeat at 1"))
	}
	if !*child {
		if err := pinToOneCPU(); err != nil {
			fatal(err)
		}
	}
	rep := &report{Env: environment(*seed, *seconds)}
	ok := true
	for _, spec := range specs {
		var runs []*runResult
		for i := 0; i < *repeat; i++ {
			var (
				res *runResult
				err error
			)
			runSeed := *seed + uint64(i)
			measure := time.Duration(*seconds) * time.Second
			switch {
			case !*child:
				// The report describes where the runs were made: the
				// child's CPU count, not this process's.
				res, rep.Env, err = runChild(spec, runSeed, *seconds, *traceMode, *smoke)
				rep.Env.Seed = *seed
			case *smoke:
				res, err = runSmoke(spec, runSeed)
			case *traceMode == 1:
				res, err = runTraced(spec, runSeed, measure)
			default:
				res, err = runUntraced(spec, runSeed, measure)
			}
			if err != nil {
				fatal(err)
			}
			if !*child {
				res.print(os.Stdout)
			}
			ok = ok && res.Correct
			runs = append(runs, res)
		}
		rep.Workloads = append(rep.Workloads, summarize(spec, runs))
	}
	if *repeat > 1 {
		rep.printSpreads(os.Stdout)
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fatal(err)
		}
	}

	// The last line of stdout is one JSON document: for a single run of a
	// single workload the run's own result, otherwise the whole report.
	var last any = rep
	if len(specs)*(*repeat) == 1 {
		last = rep.Workloads[0].Runs[0].contract()
	}
	line, err := json.Marshal(last)
	if err != nil {
		fatal(err)
	}
	if !*child {
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

// runChild makes one run in a fresh process of this same binary, pinned to
// one CPU (see pin.go), and reads the result from the report the child
// writes. A process of its own, so that heap growth and GC pacing left by an
// earlier run cannot move a later one's CPU per record or peak RSS.
func runChild(spec *workloadSpec, seed uint64, seconds, traceMode int, smoke bool) (*runResult, env, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, env{}, err
	}
	f, err := os.CreateTemp(tmpRoot, "run-*.json")
	if err != nil {
		return nil, env{}, err
	}
	f.Close()
	defer os.Remove(f.Name())
	self, err := os.Executable()
	if err != nil {
		return nil, env{}, err
	}
	args := []string{
		"-child", "-workload", spec.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(traceMode), "-out", f.Name(),
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	// Exit code 1 means failed operations, which the report records; any
	// other failure leaves no report to read.
	if err := cmd.Run(); err != nil && cmd.ProcessState.ExitCode() != 1 {
		return nil, env{}, fmt.Errorf("%s: child run: %w", spec.name, err)
	}
	child, err := readReport(f.Name())
	if err != nil {
		return nil, env{}, err
	}
	if len(child.Workloads) != 1 || len(child.Workloads[0].Runs) != 1 {
		return nil, env{}, fmt.Errorf("%s: child wrote no run", spec.name)
	}
	return child.Workloads[0].Runs[0], child.Env, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runUntraced is the end-to-end measurement of one workload: set-up is
// timed setupTrials times, then the workload runs once, untraced, for the
// warm-up plus the measured interval, and the outcome is checked.
func runUntraced(spec *workloadSpec, seed uint64, measure time.Duration) (*runResult, error) {
	var setups []float64
	for i := 0; i < setupTrials; i++ {
		began := time.Now()
		if i == 0 {
			began = processStart
		}
		d, err := setupTrial(spec, seed, began)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}

	r, err := runCluster(spec, runOpts{seed: seed, measure: measure, warmup: defaultWarmup, scale: 1, enforce: true})
	if err != nil {
		return nil, err
	}
	v := evaluate(r)
	res := newResult(r, v)
	res.Metrics = endToEndValues(r, v, median(setups)).render(endToEnd)
	if spec.kills > 0 {
		res.Metrics[recoveryMetric.Name] = metricValue{Value: median(v.recoveries), Unit: recoveryMetric.Unit}
	}
	return res, nil
}

func endToEndValues(r *clusterRun, v *verdict, setup float64) values {
	cpu := (r.to.cpu - r.from.cpu).Seconds()
	return values{
		"window_latency_p50_ms": percentile(v.latenciesMS, 50),
		"window_latency_p95_ms": medianPercentile(v.byPart[:], 95),
		"records_per_core_s":    float64(r.records()) / cpu,
		"peak_rss_mb":           r.peakRSS,
		"setup_s":               setup,
	}
}

// runTraced produces the per-layer metrics of one workload: the layer
// replay, then two short cluster runs of the same length, tracing off and
// on. The measured interval is split between the three so a traced run
// takes about as long as an untraced one.
func runTraced(spec *workloadSpec, seed uint64, measure time.Duration) (*runResult, error) {
	spans := &spanLog{}
	replay, err := layerReplay(spec, seed, measure/4, spans)
	if err != nil {
		return nil, err
	}
	short := runOpts{seed: seed, measure: measure * 3 / 8, warmup: defaultWarmup / 2, scale: 1, enforce: true}
	untraced, err := runCluster(spec, short)
	if err != nil {
		return nil, err
	}
	short.spans = spans
	traced, err := runCluster(spec, short)
	if err != nil {
		return nil, err
	}
	spans.addEngine(traced.engineSpans)

	v := evaluate(traced)
	res := newResult(traced, v)
	// The untraced run's results count too: it ran the same job.
	if u := evaluate(untraced); u.failed() > 0 {
		res.Attempted += u.attempted
		res.Failed += u.failed()
		res.Correct = false
	}
	all := clusterTraceMetrics(traced, untraced, replay)
	for k, x := range replay {
		all[k] = x
	}
	res.Metrics = all.render(perLayer)
	path := filepath.Join(traceDir, "trace-"+spec.name+".jsonl")
	if err := spans.writeJSONL(path); err != nil {
		return nil, err
	}
	res.TraceFile = path
	return res, nil
}

// runSmoke is a two-second run at a tenth of the rate that checks results
// only: it exists so the whole path (cluster, kill, join, oracle, tear-down)
// runs under the race detector in the package's tests.
func runSmoke(spec *workloadSpec, seed uint64) (*runResult, error) {
	r, err := runCluster(spec, runOpts{seed: seed, measure: 2 * time.Second, warmup: 600 * time.Millisecond, scale: 0.1})
	if err != nil {
		return nil, err
	}
	v := evaluate(r)
	res := newResult(r, v)
	// No set-up trials and no meaningful RSS here: latency and CPU only.
	res.Metrics = endToEndValues(r, v, 0).render(endToEnd[:3])
	return res, nil
}
