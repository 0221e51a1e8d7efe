// Command perfbench is the repository's benchmark. It runs one workload
// against the program's public API for a fixed time, checks every
// output, and prints each metric by name with its unit; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with the
// flight recorder off. With -trace 1 the workload runs untraced and
// traced rounds alternately and reports per-layer metrics from the
// traced ones, plus the tracing overhead. Inputs are generated from
// -seed before any timing starts; the program only sees generated
// inputs. Build and run it with perfbench/run.sh from the repository
// root; it writes scratch files only under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract and match BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd metrics apply to every workload. On the GTC workloads the
// latencies are a dump's (first Client.Write to last Finalize; the tail
// is p90), goodput counts particle bytes and the visible write is
// Client.Write. On serve-mixed the latencies are a query's (the tail is
// p99), goodput counts ingested bytes and the visible write is
// Session.Ingest. Each printed line names what it measured.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"goodput_mbps", "MB/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"write_visible_p50_us", "us"},
	{"alloc_per_input_byte", "B/B"},
}

// perLayer metrics come from the traced rounds. A layer a workload does
// not use reports 0.
var perLayer = []metricDef{
	{"predata.partial_us", "us"},
	{"predata.gather_ms", "ms"},
	{"predata.aggregate_ms", "ms"},
	{"predata.process_ms", "ms"},
	{"predata.accounted_frac", "frac"},
	{"predata.unattributed_ms", "ms"},
	{"predata.retries", "count"},
	{"ffs.encode_mbps", "MB/s"},
	{"ffs.decode_mbps", "MB/s"},
	{"ffs.encode_alloc_per_byte", "B/B"},
	{"staging.decode_chunk_mbps", "MB/s"},
	{"staging.initialize_ms", "ms"},
	{"staging.map_ms", "ms"},
	{"staging.combine_ms", "ms"},
	{"staging.shuffle_ms", "ms"},
	{"staging.reduce_ms", "ms"},
	{"staging.finalize_ms", "ms"},
	{"staging.shuffle_values", "count"},
	{"ops.sort.map_ms", "ms"},
	{"ops.sort.reduce_ms", "ms"},
	{"ops.histogram.map_ms", "ms"},
	{"ops.histogram2d.map_ms", "ms"},
	{"fabric.pull_ms", "ms"},
	{"fabric.recv_ctl_wait_ms", "ms"},
	{"fabric.bytes_per_input_byte", "B/B"},
	{"mpi.collectives_per_dump", "count"},
	{"flowctl.throttle_wait_ms", "ms"},
	{"flowctl.peak_mb", "MB"},
	{"flowctl.spilled_chunks", "count"},
	{"flowctl.shed_chunks", "count"},
	{"flowctl.admission_waits", "count"},
	{"wal.journal_share", "frac"},
	{"wal.bytes_per_input_byte", "B/B"},
	{"wal.append_mbps", "MB/s"},
	{"wal.sync_ms", "ms"},
	{"dataspaces.put_mbps", "MB/s"},
	{"dataspaces.get_us", "us"},
	{"dataspaces.put_allocs_per_cell", "count"},
	{"serve.ingest_us", "us"},
	{"serve.query_hit_us", "us"},
	{"serve.query_miss_us", "us"},
	{"serve.cache_hit_ratio", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.dropped", "count"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	budget  time.Duration // measuring time for the whole run
	traced  bool          // -trace 1: per-layer run
	scratch string        // private scratch directory, removed at exit
}

var workloads = map[string]func(runConfig) *report{
	"gtc-sort":         func(c runConfig) *report { return runGTC(c, gtcSort) },
	"gtc-hist-durable": func(c runConfig) *report { return runGTC(c, gtcHistDurable) },
	"serve-mixed":      runServe,
}

// scratchRoot holds build products and scratch files; the root
// .gitignore lists it.
const scratchRoot = ".bench_build"

func main() {
	workload := flag.String("workload", "", "workload to run: gtc-sort, gtc-hist-durable or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measuring time in seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced rounds")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s, -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	scratch, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("host %s\n", hostFingerprint())
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", *workload, *seed, *seconds, *traceFlag)
	rep := run(runConfig{
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		traced:  *traceFlag == 1,
		scratch: scratch,
	})
	if err := os.RemoveAll(scratch); err != nil {
		rep.check("scratch removed", err)
	}
	defs := endToEnd
	if *traceFlag == 1 {
		defs = perLayer
	}
	if !rep.emit(os.Stdout, defs) {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report collects one run's metrics, operation counts and checks.
type report struct {
	attempted, failed int64
	values            map[string]float64
	notes             map[string]string
	checks            map[string]*checkTally
	checkOrder        []string
}

type checkTally struct {
	evaluated, failed int
	first             string
}

func newReport() *report {
	return &report{
		values: make(map[string]float64),
		notes:  make(map[string]string),
		checks: make(map[string]*checkTally),
	}
}

// set records a metric value with a note on what it measured.
func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// check tallies one evaluation of a named correctness check; a nil err
// passes. Every check is evaluated before the run reports.
func (r *report) check(name string, err error) bool {
	t, ok := r.checks[name]
	if !ok {
		t = &checkTally{}
		r.checks[name] = t
		r.checkOrder = append(r.checkOrder, name)
	}
	t.evaluated++
	if err != nil {
		t.failed++
		if t.first == "" {
			t.first = err.Error()
		}
		return false
	}
	return true
}

func (r *report) correct() bool {
	for _, t := range r.checks {
		if t.failed > 0 {
			return false
		}
	}
	return r.failed == 0 && r.attempted > 0
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// emit prints the checks, one line per metric in defs, and the result
// JSON as the last line. It reports whether the run passed: every check
// held, no operation failed, and every metric was measured.
func (r *report) emit(w *os.File, defs []metricDef) bool {
	for _, name := range r.checkOrder {
		t := r.checks[name]
		if t.failed == 0 {
			fmt.Fprintf(w, "check %-40s ok (%d evaluated)\n", name, t.evaluated)
		} else {
			fmt.Fprintf(w, "check %-40s FAILED %d of %d: %s\n", name, t.failed, t.evaluated, t.first)
		}
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "operations attempted %d failed %d failed_frac %.6f\n", r.attempted, r.failed, failedFrac)
	out := resultJSON{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricJSON, len(defs))}
	complete := true
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(w, "metric %-32s missing  %s\n", d.name, r.notes[d.name])
			complete = false
			continue
		}
		fmt.Fprintf(w, "metric %-32s %14.6g %-6s %s\n", d.name, v, d.unit, r.notes[d.name])
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		out.Attempted = 1 // the contract requires attempted >= 1
		out.Failed = 1
		out.Correct = false
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return false
	}
	fmt.Fprintln(w, string(line))
	return out.Correct && complete
}
