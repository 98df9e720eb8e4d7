package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// runResult is one run of one workload as it is printed and recorded.
type runResult struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Samples is the number of latency samples; HighestPercentile is the
	// highest percentile they support (at least ten samples beyond it).
	Samples           int     `json:"samples"`
	HighestPercentile float64 `json:"highest_percentile"`
	MaxLatencyMS      float64 `json:"max_latency_ms"`
	// Failure breakdown and why the run did not keep up, if it did not.
	Missing     int    `json:"missing"`
	Conflicting int    `json:"conflicting"`
	Wrong       int    `json:"wrong"`
	Late        int    `json:"late"`
	Checked     int    `json:"checked"`
	Unsustained string `json:"unsustained,omitempty"`
	// CPUCores is the process CPU time over the measured interval divided
	// by its length: how much of the box the fixed load used.
	CPUCores float64 `json:"cpu_cores"`

	Metrics   map[string]metricValue `json:"metrics"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

func newResult(r *clusterRun, v *verdict) *runResult {
	return &runResult{
		Workload:          r.spec.name,
		Seed:              r.opts.seed,
		Correct:           v.failed() == 0,
		Attempted:         v.attempted,
		Failed:            v.failed(),
		Samples:           len(v.latenciesMS),
		HighestPercentile: highestPercentile(len(v.latenciesMS)),
		MaxLatencyMS:      percentile(v.latenciesMS, 100),
		Missing:           v.missing,
		Conflicting:       v.conflicting,
		Wrong:             v.wrong,
		Late:              v.late,
		Checked:           v.checked,
		Unsustained:       v.unsustained,
		CPUCores:          (r.to.cpu - r.from.cpu).Seconds() / r.to.at.Sub(r.from.at).Seconds(),
	}
}

// print writes the run as "workload metric value unit" lines.
func (r *runResult) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %v %s\n", r.Workload, name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%s cpu_cores_used %.4f cores\n", r.Workload, r.CPUCores)
	fmt.Fprintf(w, "%s latency_samples %d count\n", r.Workload, r.Samples)
	fmt.Fprintf(w, "%s highest_supported_percentile %v %%\n", r.Workload, r.HighestPercentile)
	fmt.Fprintf(w, "%s window_latency_max_ms %.3f ms\n", r.Workload, r.MaxLatencyMS)
	fmt.Fprintf(w, "%s operations_attempted %d count\n", r.Workload, r.Attempted)
	fmt.Fprintf(w, "%s operations_failed %d count\n", r.Workload, r.Failed)
	fmt.Fprintf(w, "%s operations_checked_against_reference %d count\n", r.Workload, r.Checked)
	if r.Failed > 0 {
		fmt.Fprintf(w, "%s failures missing=%d conflicting=%d wrong=%d late=%d\n",
			r.Workload, r.Missing, r.Conflicting, r.Wrong, r.Late)
	}
	if r.Unsustained != "" {
		fmt.Fprintf(w, "%s unsustained: %s\n", r.Workload, r.Unsustained)
	}
}

// contract is the run in the form the benchmark's caller reads from the
// last line of stdout: exactly these four keys, and only the metrics
// BENCHMARK.json declares.
func (r *runResult) contract() any {
	metrics := make(map[string]metricValue, len(r.Metrics))
	for name, m := range r.Metrics {
		if name != recoveryMetric.Name {
			metrics[name] = m
		}
	}
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics}
}

// env records where and how a report was made.
type env struct {
	Commit     string         `json:"commit"`
	Go         string         `json:"go"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Kernel     string         `json:"kernel"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Rates      map[string]int `json:"rates_events_per_s_per_partition"`
}

func environment(seed uint64, seconds int) env {
	return env{
		Commit:     gitCommit(),
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     readTrimmed("/proc/sys/kernel/osrelease"),
		Seed:       seed,
		Seconds:    seconds,
		Rates: map[string]int{
			"yahoo-combine":    yahooRate,
			"sessions-groupby": sessionsRate,
			"video-kill":       videoRate,
		},
	}
}

func readTrimmed(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// gitCommit reads the checked-out commit from .git in the working
// directory without starting a process; "unknown" outside a repository.
func gitCommit() string {
	head := readTrimmed(".git/HEAD")
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		return readTrimmed(".git/" + ref)
	}
	return head
}

// metricSummary is one metric of one workload over the runs of a report.
type metricSummary struct {
	metricDef
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (Q3-Q1)/median
	Values []float64 `json:"values"`
}

// workloadReport is one workload's part of a report.
type workloadReport struct {
	Workload string          `json:"workload"`
	Why      string          `json:"why"`
	Metrics  []metricSummary `json:"metrics"`
	Runs     []*runResult    `json:"runs"`
}

// report is the document -out writes and -diff reads.
type report struct {
	Env       env              `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

// defsFor finds the definitions of the metrics a run reported, in table
// order.
func defsFor(run *runResult) []metricDef {
	var defs []metricDef
	for _, d := range append(append(append([]metricDef(nil), endToEnd...), recoveryMetric), perLayer...) {
		if _, ok := run.Metrics[d.Name]; ok {
			defs = append(defs, d)
		}
	}
	return defs
}

func summarize(spec *workloadSpec, runs []*runResult) workloadReport {
	wr := workloadReport{Workload: spec.name, Why: spec.why, Runs: runs}
	for _, d := range defsFor(runs[0]) {
		var vs []float64
		for _, r := range runs {
			vs = append(vs, r.Metrics[d.Name].Value)
		}
		q1, q2, q3 := quartiles(vs)
		wr.Metrics = append(wr.Metrics, metricSummary{
			metricDef: d, Median: q2, Q1: q1, Q3: q3, Spread: spread(vs), Values: vs,
		})
	}
	return wr
}

// printSpreads prints, per workload and metric, the median, the quartiles
// and the spread over the report's runs, and says whether the spread fits
// inside the metric's bound.
func (rep *report) printSpreads(w io.Writer) {
	for _, wr := range rep.Workloads {
		for _, m := range wr.Metrics {
			verdict := ""
			if m.Bound > 0 {
				verdict = " spread within bound"
				if m.Spread > m.Bound {
					verdict = " SPREAD EXCEEDS BOUND"
				}
			}
			fmt.Fprintf(w, "%s %s median=%.6g q1=%.6g q3=%.6g spread=%.4f bound=%v %s%s\n",
				wr.Workload, m.Name, m.Median, m.Q1, m.Q3, m.Spread, m.Bound, m.Unit, verdict)
		}
	}
}

func (rep *report) write(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// Verdicts of a comparison between two reports.
const (
	improved    = "improved"
	withinBound = "within bound"
	regressed   = "regressed"
	unresolved  = "unresolved"
)

// compare judges new against old for one bounded metric. The ratio is
// new/old, its base the old median. A metric whose run-to-run spread on
// either side is wider than its bound cannot be called either way.
func compare(old, new metricSummary) (ratio float64, verdict string) {
	if old.Median != 0 {
		ratio = new.Median / old.Median
	}
	if old.Spread > old.Bound || new.Spread > old.Bound {
		return ratio, unresolved
	}
	worse := ratio - 1 // share by which new is worse than old
	if old.Better == higher {
		worse = 1 - ratio
	}
	switch {
	case worse > old.Bound:
		return ratio, regressed
	case worse < -old.Bound:
		return ratio, improved
	}
	return ratio, withinBound
}

// diffReports prints, per workload and metric, old, new, their ratio and a
// verdict, and reports whether any bounded metric regressed. Metrics
// without a bound (per-layer) are listed with their ratio only.
func diffReports(w io.Writer, oldPath, newPath string) (bool, error) {
	oldRep, err := readReport(oldPath)
	if err != nil {
		return false, err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "old: %s (commit %s, %s)\nnew: %s (commit %s, %s)\n",
		oldPath, oldRep.Env.Commit, oldRep.Env.Go, newPath, newRep.Env.Commit, newRep.Env.Go)
	anyRegressed := false
	for _, ow := range oldRep.Workloads {
		for _, nw := range newRep.Workloads {
			if nw.Workload != ow.Workload {
				continue
			}
			for _, om := range ow.Metrics {
				for _, nm := range nw.Metrics {
					if nm.Name != om.Name {
						continue
					}
					ratio, verdict := compare(om, nm)
					if om.Bound == 0 {
						verdict = "no bound"
					}
					anyRegressed = anyRegressed || verdict == regressed
					fmt.Fprintf(w, "%s %s old=%.6g new=%.6g %s ratio=%.4f (new/old) %s\n",
						ow.Workload, om.Name, om.Median, nm.Median, om.Unit, ratio, verdict)
				}
			}
		}
	}
	return anyRegressed, nil
}
