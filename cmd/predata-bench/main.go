// Command predata-bench regenerates the tables and figures of the
// PreDatA paper's evaluation (IPDPS 2010, Section V).
//
// Usage:
//
//	predata-bench -experiment fig7 [-op sort|hist|hist2d|all]
//	predata-bench -experiment fig8|fig9|fig10|fig11|offline|des|chaos|ablations
//	predata-bench -experiment overload|trace|elastic|adversary|restart|serve [-json path]
//	predata-bench -experiment all
//
// Model rows reproduce the paper's scales (512-16,384 cores); functional
// mini-runs exercise the real pipeline at laptop scale. Run alone,
// overload, trace, elastic, adversary, restart and serve write their
// summary to BENCH_<name>.json unless -json names another path (""
// disables); all writes no JSON.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"predata/internal/bench"
)

// experiment is one entry of the -experiment table. An entry that
// writes a JSON summary defaults it to BENCH_<name>.json.
type experiment struct {
	name string
	json bool
	run  func(w io.Writer, op, jsonPath string) error
}

// figure adapts a table or figure that takes only the output stream.
func figure(f func(io.Writer) error) func(io.Writer, string, string) error {
	return func(w io.Writer, _, _ string) error { return f(w) }
}

// summary adapts an experiment that writes a JSON summary.
func summary(f func(io.Writer, string) error) func(io.Writer, string, string) error {
	return func(w io.Writer, _, jsonPath string) error { return f(w, jsonPath) }
}

// experiments lists every experiment in the order -experiment all runs them.
var experiments = []experiment{
	{"fig7", false, func(w io.Writer, op, _ string) error { return bench.Fig7(w, op) }},
	{"fig8", false, figure(bench.Fig8)},
	{"fig9", false, figure(bench.Fig9)},
	{"fig10", false, figure(bench.Fig10)},
	{"fig11", false, figure(bench.Fig11)},
	{"offline", false, figure(bench.Offline)},
	{"des", false, figure(bench.DESCrossCheck)},
	{"chaos", false, figure(bench.Chaos)},
	{"overload", true, summary(bench.Overload)},
	{"trace", true, summary(bench.Trace)},
	{"elastic", true, summary(bench.Elastic)},
	{"adversary", true, summary(bench.Adversary)},
	{"restart", true, summary(bench.Restart)},
	{"serve", true, summary(bench.Serve)},
	{"ablations", false, figure(func(w io.Writer) error {
		for _, f := range []func(io.Writer) error{
			bench.AblationScheduling, bench.AblationCombine, bench.AblationRatio,
			bench.AblationFunctionalScaling, bench.AblationBitmap,
		} {
			if err := f(w); err != nil {
				return err
			}
		}
		return nil
	})},
}

func lookup(name string) (experiment, bool) {
	for _, e := range experiments {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

func names() string {
	var ns []string
	for _, e := range experiments {
		ns = append(ns, e.name)
	}
	return strings.Join(append(ns, "all"), "|")
}

// defaultJSON is the -json default: each experiment's own file.
const defaultJSON = "BENCH_<name>.json"

// jsonPath resolves where an experiment writes its JSON summary from
// the -json value; always "" for an experiment that writes none, and
// for all.
func jsonPath(name, flagValue string) string {
	if e, ok := lookup(name); !ok || !e.json {
		return ""
	}
	if flagValue == defaultJSON {
		return "BENCH_" + name + ".json"
	}
	return flagValue
}

func main() {
	name := flag.String("experiment", "all", "which experiment to regenerate: "+names())
	op := flag.String("op", "all", "fig7 operator: sort|hist|hist2d|all")
	jsonFlag := flag.String("json", defaultJSON,
		"where an experiment that writes a JSON summary writes it (empty disables)")
	flag.Parse()

	if err := run(os.Stdout, *name, *op, jsonPath(*name, *jsonFlag)); err != nil {
		fmt.Fprintln(os.Stderr, "predata-bench:", err)
		os.Exit(1)
	}
}

// run executes one experiment, or every one in table order for all —
// which writes no JSON, and stops at the first failing experiment.
func run(w io.Writer, name, op, jsonPath string) error {
	if name == "all" {
		for _, e := range experiments {
			if err := e.run(w, op, ""); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
		}
		return nil
	}
	e, ok := lookup(name)
	if !ok {
		return fmt.Errorf("unknown experiment %q (want %s)", name, names())
	}
	return e.run(w, op, jsonPath)
}
