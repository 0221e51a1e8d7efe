package bench

import (
	"fmt"
	"io"
	"time"

	"predata/internal/flowctl"
	"predata/internal/predata"
	"predata/internal/staging"
)

// OverloadRun is one leg of the overload experiment in BENCH_*.json form:
// the overload trajectory — spill bytes, shed operators, peak accounted
// memory — alongside the wall time and loss check.
type OverloadRun struct {
	Name           string   `json:"name"`
	WallMS         int64    `json:"wall_ms"`
	BudgetBytes    int64    `json:"budget_bytes"`
	Throttles      int64    `json:"throttles"`
	ThrottleWaitMS int64    `json:"throttle_wait_ms"`
	SpilledChunks  int64    `json:"spilled_chunks"`
	SpilledBytes   int64    `json:"spilled_bytes"`
	ReplayedChunks int64    `json:"replayed_chunks"`
	SampledChunks  int64    `json:"sampled_chunks"`
	ShedChunks     int64    `json:"shed_chunks"`
	PassedChunks   int64    `json:"passed_chunks"`
	PassedBytes    int64    `json:"passed_bytes"`
	PeakBytes      int64    `json:"peak_bytes"`
	MaxLevel       string   `json:"max_level"`
	ShedOperators  []string `json:"shed_operators"`
	DegradedDumps  int64    `json:"degraded_dumps"`
	DataLoss       int64    `json:"data_loss"`
}

// OverloadSummary is the JSON document the overload experiment emits.
type OverloadSummary struct {
	hosted
	Seed int64         `json:"seed"`
	Runs []OverloadRun `json:"runs"`
}

// overloadRow condenses one leg's pipeline result into its JSON form.
func overloadRow(name string, res *predata.PipelineResult, wall time.Duration, loss int64) OverloadRun {
	row := OverloadRun{
		Name:          name,
		WallMS:        wall.Milliseconds(),
		MaxLevel:      flowctl.LevelName(flowctl.LevelNormal),
		ShedOperators: []string{},
		DataLoss:      loss,
	}
	if ov := res.Overload; ov != nil {
		row.BudgetBytes = ov.BudgetBytes
		row.Throttles = ov.Throttles
		row.ThrottleWaitMS = ov.ThrottleWait.Milliseconds()
		row.SpilledChunks = ov.SpilledChunks
		row.SpilledBytes = ov.SpilledBytes
		row.ReplayedChunks = ov.ReplayedChunks
		row.SampledChunks = ov.SampledChunks
		row.ShedChunks = ov.ShedChunks
		row.PassedChunks = ov.PassedChunks
		row.PassedBytes = ov.PassedBytes
		row.PeakBytes = ov.PeakBytes
		row.MaxLevel = flowctl.LevelName(ov.MaxLevel)
	}
	seen := map[string]bool{}
	for _, perDump := range res.StagingResults {
		for _, r := range perDump {
			if r.Degraded {
				row.DegradedDumps++
			}
			for _, op := range r.ShedOperators {
				if !seen[op] {
					seen[op] = true
					row.ShedOperators = append(row.ShedOperators, op)
				}
			}
		}
	}
	return row
}

// Overload runs the memory-budget experiment: the same slow-consumer
// workload unconstrained, under a budget smaller than one dump (spill),
// with the shed rung forced, and under a budget combined with transient
// fabric faults. It demonstrates the flow-control contract — spilling is
// lossless and result-identical, shedding degrades only optional
// operators, and the accountant's peak stays within budget + one chunk.
// When jsonPath is non-empty the per-leg overload trajectory is also
// written there as JSON.
func Overload(w io.Writer, jsonPath string) error {
	const (
		numCompute = 8
		numStaging = 2
		perRank    = 6000 // ~384 KB/chunk; 4 chunks/rank/dump ≈ 1.5 MB > 1 MB budget
		dumps      = 2
		bufferMB   = 1
	)
	seed, err := faultSeed()
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("Overload — memory budget and degradation ladder (seed %d)", seed))

	spillPol := flowctl.Policy{Patience: 2 * time.Millisecond}
	shedPol := flowctl.Policy{
		Patience:        time.Millisecond,
		SpillLimitBytes: 1,       // first spilled byte escalates to shed
		PassLimitBytes:  1 << 40, // never to raw pass-through
		ShedSample:      2,
	}
	legs := []struct {
		name     string
		bufferMB int
		pol      flowctl.Policy
		spec     string
	}{
		{"unconstrained", 0, flowctl.Policy{}, ""},
		{fmt.Sprintf("budget %d MB (spill)", bufferMB), bufferMB, spillPol, ""},
		{fmt.Sprintf("budget %d MB, shed forced", bufferMB), bufferMB, shedPol, ""},
		{fmt.Sprintf("budget %d MB + transient p=0.1", bufferMB), bufferMB, spillPol, "transient:*:0.1"},
	}
	// Data conservation as in the chaos experiment: every particle lands
	// in exactly one bin per histogrammed column — except chunks withheld
	// from the (optional) histogram by shedding, which are reported, not
	// lost.
	want := int64(numCompute*perRank) * 2 * dumps
	rows := make([]OverloadRun, 0, len(legs))
	for _, l := range legs {
		res, wall, err := runGTC(predata.PipelineConfig{
			NumCompute:      numCompute,
			NumStaging:      numStaging,
			Dumps:           dumps,
			Engine:          staging.Config{Workers: 1},
			PullConcurrency: 4,
			BufferMB:        l.bufferMB,
			Overload:        l.pol,
		}, perRank, l.spec, seed, 3*time.Millisecond)
		if err != nil {
			return fmt.Errorf("bench: %s run: %w", l.name, err)
		}
		_, got := census(res, dumps)
		rows = append(rows, overloadRow(l.name, res, wall, want-got))
	}
	fmt.Fprintf(w, "%-30s %9s %9s %8s %10s %10s %9s %8s %6s\n",
		"run", "wall", "throttle", "spillMB", "replayed", "shed", "peakMB", "level", "loss")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %8dms %9d %8.2f %10d %10d %9.2f %8s %6d\n",
			r.Name, r.WallMS, r.Throttles, float64(r.SpilledBytes)/(1<<20),
			r.ReplayedChunks, r.ShedChunks, float64(r.PeakBytes)/(1<<20), r.MaxLevel, r.DataLoss)
	}

	// Invariants the experiment exists to demonstrate.
	var c checks
	c.check(rows[1].Throttles != 0 && rows[1].SpilledChunks != 0, "spill run never throttled or spilled: %+v", rows[1])
	c.check(rows[1].ReplayedChunks == rows[1].SpilledChunks, "spill run lost chunks: replayed %d of %d",
		rows[1].ReplayedChunks, rows[1].SpilledChunks)
	c.check(rows[1].DataLoss == 0 && rows[3].DataLoss == 0, "spill-level runs must be lossless: %+v / %+v", rows[1], rows[3])
	chunkBytes := int64(perRank * 8 * 8) // 8 float64 columns
	for _, r := range rows[1:] {
		c.check(r.PeakBytes <= r.BudgetBytes+2*chunkBytes, "%s peak %d exceeds budget %d + slack", r.Name, r.PeakBytes, r.BudgetBytes)
	}
	c.check(rows[2].ShedChunks != 0 && len(rows[2].ShedOperators) != 0 && rows[2].DegradedDumps != 0,
		"forced shed run never shed: %+v", rows[2])
	return c.finish(w, jsonPath, &OverloadSummary{Seed: seed, Runs: rows},
		"budgeted runs stay within budget + one chunk, spill is lossless, shed degrades only optional operators")
}
