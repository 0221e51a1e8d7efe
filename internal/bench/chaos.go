package bench

import (
	"fmt"
	"io"
	"time"

	"predata/internal/predata"
	"predata/internal/staging"
)

// Chaos runs the fault-injection experiment: the same workload fault-free,
// under transient faults, and under a staging-rank crash. It demonstrates
// the recovery layer's contract — transient faults are absorbed with
// identical results, a crash degrades but never loses data, and the
// chaotic runs stay within a bounded slowdown of the baseline.
func Chaos(w io.Writer) error {
	const (
		numCompute = 8
		numStaging = 2
		perRank    = 5000
		dumps      = 3
		crashIdx   = 1
		crashDump  = 1
	)
	seed, err := faultSeed()
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("Chaos — fault injection and recovery (seed %d)", seed))

	cfg := predata.PipelineConfig{
		NumCompute:      numCompute,
		NumStaging:      numStaging,
		Dumps:           dumps,
		Engine:          staging.Config{Workers: 2},
		PullConcurrency: 2,
	}
	legs := []struct{ name, spec string }{
		{"fault-free", ""},
		{"transient p=0.1", "transient:*:0.1"},
		{fmt.Sprintf("staging crash @dump %d", crashDump),
			fmt.Sprintf("crash:%d@%d;transient:*:0.05", numCompute+crashIdx, crashDump)},
	}
	// Every particle of every writer is binned exactly twice (two
	// histogrammed columns) per dump.
	want := int64(numCompute*perRank) * 2
	results := make([]*predata.PipelineResult, len(legs))
	walls := make([]time.Duration, len(legs))
	fmt.Fprintf(w, "%-28s %12s %10s %10s %10s %9s\n",
		"run", "wall", "transients", "retries", "degraded", "loss")
	for i, l := range legs {
		if results[i], walls[i], err = runGTC(cfg, perRank, l.spec, seed, 0); err != nil {
			return fmt.Errorf("bench: %s run: %w", l.name, err)
		}
		var transients, retries, degraded int64
		if f := results[i].Fault; f != nil {
			transients, retries, degraded = f.InjectedTransients, f.Retries, f.DegradedDumps
		}
		_, got := census(results[i], dumps)
		fmt.Fprintf(w, "%-28s %12v %10d %10d %10d %9d\n",
			l.name, walls[i].Round(time.Millisecond), transients, retries, degraded, want*dumps-got)
	}

	// Invariants the experiment exists to demonstrate: both chaotic
	// runs lose nothing and finish within an order of magnitude of the
	// baseline (generous — CI machines are noisy).
	var c checks
	for i := 1; i < len(legs); i++ {
		perDump, _ := census(results[i], dumps)
		for d, got := range perDump {
			c.check(got == want, "%s run lost data at dump %d: %d != %d", legs[i].name, d, got, want)
		}
		c.check(walls[i] <= 10*walls[0]+time.Second, "%s run wall %v exceeds bounded slowdown of baseline %v",
			legs[i].name, walls[i], walls[0])
	}
	trans, crash := results[1].Fault, results[2].Fault
	c.check(trans.InjectedTransients == 0 || trans.Retries != 0, "transients fired but nothing retried")
	c.check(crash.DegradedDumps != 0, "crash run reports no degraded dumps")
	return c.finish(w, "", nil,
		"recovery absorbs transients with identical results and completes a staging crash degraded, lossless")
}
