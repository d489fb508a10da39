// Command perfbench is the repository's end-to-end benchmark. It drives the
// serving plane (placesvc, shardsvc) and the fleet simulator (sim) through
// their public Go APIs on inputs generated from a seed, checks that the
// outputs are correct, and prints every metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics of BENCHMARK.json for --trace 0 and its
// per-layer metrics for --trace 1. Every other number the run measured is
// printed above that line and written, with the machine stamp and (for
// traced runs) the recorded spans, to a JSON file under resultDir.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload serve-steady --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// resultDir holds the per-run result files, relative to the repository root.
var resultDir = filepath.Join(".bench_build", "perfbench", "results")

// metricSpec names one metric of the final result line and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics every workload reports in an untraced run. Each
// is measured on every workload, so each can be compared across
// commits; workload-specific end-to-end numbers (admission latency, CVR,
// migrations) are printed and filed beside them. sim_intervals_s is printed
// and filed but not listed: on every workload it is saturation_ops_s in
// other units (σ-intervals of the op stream instead of its transitions), so
// listing both would gate one measurement twice.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"place_s", "s"},
	{"saturation_ops_s", "ops/s"},
	{"pms_used", "count"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the per-layer metrics every workload measures in a traced
// run. Layer metrics that exist on some workloads only (the client's op
// counts on serving, the forecast cache on sim, ...) are printed and filed,
// as is the tracing overhead in σ-intervals (trace.sim_intervals_s.*), the
// saturation_ops_s pair in other units.
var perLayer = []metricSpec{
	{"queuing.table_build_ms", "ms"},
	{"queuing.table_solves", "count"},
	{"queuing.table_hits", "count"},
	{"workload.fleet_step_ms.p50", "ms"},
	{"trace.saturation_ops_s.untraced", "ops/s"},
	{"trace.saturation_ops_s.traced", "ops/s"},
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// scale multiplies the fleet and pool sizes: 1 from the command line,
	// smaller in the self-test.
	scale float64
}

// outcome is one workload run's measurements.
type outcome struct {
	metrics   map[string]metric
	attempted int64 // operations issued: requests (serve) or σ-intervals (sim)
	failed    int64 // of those, refused or failed
	spans     []span
	spanCount map[string]int // spans per layer.name, kept or not
	checkErr  error          // first failed correctness check
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

// set records a metric. A value that is not finite (a quantile of no
// samples) is left out: JSON cannot carry it, and a listed metric left out
// fails the run.
func (o *outcome) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// why says what the workload stresses; layers lists the layers whose
	// change should move its end-to-end metrics.
	why    string
	layers []string
	// unlisted workloads run on request but are left out of BENCHMARK.json:
	// their figures swing too far with the host to be compared across
	// commits (see the README).
	unlisted bool
	run      func(rc runConfig) (*outcome, error)
}

var workloads = []workloadDef{
	{
		name:   "serve-steady",
		why:    "one placesvc.Service at the stationary population: the core.Online first-fit index and the committer's queue and batch path do the work",
		layers: []string{"core", "placesvc", "queuing"},
		run:    func(rc runConfig) (*outcome, error) { return runServe(serveSteady, rc) },
	},
	{
		name:   "serve-fed-large",
		why:    "4-shard shardsvc.Federation with the rebalancer on a 10x larger pool: routing, forwarding and per-shard publish beside the writes",
		layers: []string{"shardsvc", "placesvc", "core", "queuing"},
		run:    func(rc runConfig) (*outcome, error) { return runServe(serveFedLarge, rc) },
	},
	{
		name:     "sim-queue",
		why:      "QUEUE-packed fleet simulated with the forecast hook: the ledger's demand sync and measure sweep and the transient forecasts dominate",
		layers:   []string{"sim", "workload", "queuing", "core"},
		unlisted: true,
		run:      func(rc runConfig) (*outcome, error) { return runSim(simQueue, rc) },
	},
	{
		name:   "sim-rb-churn",
		why:    "RB-packed fleet in the cycle-migration regime: victim and target search of the migration layer dominates",
		layers: []string{"sim", "workload", "core"},
		run:    func(rc runConfig) (*outcome, error) { return runSim(simRBChurn, rc) },
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: serve-steady, serve-fed-large, sim-queue or sim-rb-churn")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "nominal measuring time; op counts and run repeats scale with it")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if !(*seconds > 0) || math.IsInf(*seconds, 0) {
		return fmt.Errorf("--seconds = %v, want > 0", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace = %d, want 0 or 1", *trace)
	}
	return runWith(w, runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1}, resultDir, stdout)
}

// runWith runs one workload, prints its metrics and result line, and writes
// the result file under outDir.
func runWith(w workloadDef, rc runConfig, outDir string, stdout io.Writer) error {
	// The stamp reads the sources first: a checkout without the repository's
	// code fails here, before any work, and the build would have failed too.
	st, err := newStamp(w, rc.seed, rc.seconds, rc.trace)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d\n", w.name, rc.seed, rc.seconds, boolInt(rc.trace))
	if line, err := json.Marshal(st); err == nil {
		fmt.Fprintf(stdout, "stamp %s\n", line)
	}

	o, err := w.run(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		fmt.Fprintf(stdout, "metric %-40s %.6g %s\n", n, m.Value, m.Unit)
	}
	if err := writeResultFile(outDir, st, o); err != nil {
		return err
	}

	specs := endToEnd
	if rc.trace {
		specs = perLayer
	}
	res := result{
		Correct:   o.checkErr == nil,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, s := range specs {
		m, ok := o.metrics[s.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", w.name, s.name)
		}
		if m.Unit != s.unit {
			return fmt.Errorf("%s: metric %s measured in %s, listed in %s", w.name, s.name, m.Unit, s.unit)
		}
		res.Metrics[s.name] = m
	}
	if res.Attempted < 1 {
		return fmt.Errorf("%s: no operation attempted", w.name)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if o.checkErr != nil {
		fmt.Fprintf(stdout, "check failed: %v\n", o.checkErr)
	}
	fmt.Fprintln(stdout, string(line))
	if o.checkErr != nil {
		return fmt.Errorf("%s: correctness check failed: %w", w.name, o.checkErr)
	}
	return nil
}

// resultFile is the per-run record written under resultDir.
type resultFile struct {
	Stamp     stamp             `json:"stamp"`
	Correct   bool              `json:"correct"`
	Check     string            `json:"check,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	SpanCount map[string]int    `json:"span_count,omitempty"`
	Spans     []span            `json:"spans,omitempty"`
}

func writeResultFile(dir string, st stamp, o *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating result directory: %w", err)
	}
	rf := resultFile{Stamp: st, Correct: o.checkErr == nil, Metrics: o.metrics, SpanCount: o.spanCount, Spans: o.spans}
	if o.checkErr != nil {
		rf.Check = o.checkErr.Error()
	}
	data, err := json.Marshal(rf)
	if err != nil {
		return fmt.Errorf("encoding result file: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", st.Workload, st.Seed, boolInt(st.Trace)))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing result file: %w", err)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
