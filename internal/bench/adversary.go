package bench

import (
	"fmt"
	"io"
	"time"

	"predata/internal/fabric"
	"predata/internal/predata"
	"predata/internal/staging"
)

// The adversary experiment's shared shape: enough writers and staging
// ranks for a meaningful quorum (3 staging ranks — a fenced minority of
// one leaves a strict majority serving) over a multi-dump window that
// straddles the partition.
const (
	advCompute = 8
	advStaging = 3
	advPerRank = 2000
	advDumps   = 4
)

// advPartition severs staging index 2 (endpoint 10) from the other two
// staging ranks over dumps 1-2: it loses quorum and fences itself while
// endpoints 8 and 9 keep serving, then heals at dump 3.
const advPartition = "partition:10|8,9@1-2"

// AdversaryRun is one leg of the adversarial-wire experiment in
// BENCH_adversary.json form: goodput plus the corruption, partition and
// hedging trajectories.
type AdversaryRun struct {
	Name   string `json:"name"`
	WallMS int64  `json:"wall_ms"`
	// GoodputMValS is values verifiably reduced per wall second, in
	// millions — the figure corruption re-pulls, fence windows and
	// hedged stragglers each tax in their own way.
	GoodputMValS float64 `json:"goodput_mval_s"`
	// Corruption trajectory: injector fires, CRC rejections healed by
	// re-pull, and chunks abandoned because the source copy is bad.
	Corruptions  int64 `json:"corruptions"`
	CorruptPulls int64 `json:"corrupt_pulls"`
	CorruptDrops int64 `json:"corrupt_drops"`
	// Partition trajectory: link refusals, per-rank dumps sat out
	// without quorum, fenced ranks rejoining, rerouted writes, and the
	// wall time spent reconfiguring membership.
	Unreachables  int64 `json:"unreachables"`
	FencedDumps   int64 `json:"fenced_dumps"`
	Heals         int64 `json:"heals"`
	ReroutedDumps int64 `json:"rerouted_dumps"`
	RecoveryMS    int64 `json:"recovery_ms"`
	// Straggler trajectory: pulls that armed a hedge past the
	// bandwidth-model deadline and races the hedge won.
	HedgedPulls int64 `json:"hedged_pulls"`
	HedgeWins   int64 `json:"hedge_wins"`
	// DegradedDumps and DataLoss close the ledger: explicit degradation
	// versus silently missing values (always zero — loss is loud).
	DegradedDumps int64 `json:"degraded_dumps"`
	DataLoss      int64 `json:"data_loss"`
}

// AdversarySummary is the JSON document the adversary experiment emits.
type AdversarySummary struct {
	hosted
	Seed    int64          `json:"seed"`
	Writers int            `json:"writers"`
	Staging int            `json:"staging"`
	Dumps   int            `json:"dumps"`
	Runs    []AdversaryRun `json:"runs"`
}

// advBenchRow condenses one leg into its JSON form. Loss is measured
// against the conservation figure: every particle bins exactly twice
// (two histogrammed columns) per dump.
func advBenchRow(name string, res *predata.PipelineResult, wall time.Duration) AdversaryRun {
	want := int64(advCompute*advPerRank) * 2 * int64(advDumps)
	_, got := census(res, advDumps)
	row := AdversaryRun{
		Name:     name,
		WallMS:   wall.Milliseconds(),
		DataLoss: want - got,
	}
	if wall > 0 {
		row.GoodputMValS = float64(got) / wall.Seconds() / 1e6
	}
	if f := res.Fault; f != nil {
		row.Corruptions = f.Corruptions
		row.CorruptPulls = f.CorruptPulls
		row.CorruptDrops = f.CorruptDrops
		row.Unreachables = f.Unreachables
		row.FencedDumps = f.FencedDumps
		row.Heals = f.Heals
		row.ReroutedDumps = f.ReroutedDumps
		row.RecoveryMS = f.RecoveryWall.Milliseconds()
		row.HedgedPulls = f.HedgedPulls
		row.HedgeWins = f.HedgeWins
		row.DegradedDumps = f.DegradedDumps
	}
	return row
}

// Adversary runs the adversarial-wire experiment: the same workload
// fault-free, under wire corruption (healed by CRC-verified re-pulls),
// under persistent source corruption (shed loudly after the attempt
// budget), across a staging partition (fence, serve degraded, heal),
// and over a noisy paced fabric (stragglers hedged). It demonstrates
// the robustness contract: corruption and partitions never silently
// lose data — every leg either matches the baseline bit-for-bit or
// declares its degradation. When jsonPath is non-empty the legs are
// also written there as JSON.
func Adversary(w io.Writer, jsonPath string) error {
	seed, err := faultSeed()
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("Adversary — wire corruption, partitions and stragglers (seed %d)", seed))

	// The straggler leg paces the fabric against its bandwidth model and
	// adds heavy log-normal transfer noise so slow pulls blow the model
	// deadline and hedge.
	noisy := fabric.DefaultConfig(advCompute + advStaging)
	noisy.PaceScale = 50
	noisy.VarSigma = 2.0
	legs := []struct {
		name string
		spec string
		fcfg *fabric.Config
	}{
		{"fault-free", "", nil},
		{"wire corrupt p=0.15", "corrupt:*:0.15:pull", nil},
		{"source corrupt w0", "corrupt:0:1:send", nil},
		{"partition dumps 1-2", advPartition, nil},
		{"straggler hedging", "", &noisy},
	}

	rows := make([]AdversaryRun, 0, len(legs))
	for _, l := range legs {
		cfg := predata.PipelineConfig{
			NumCompute:      advCompute,
			NumStaging:      advStaging,
			Dumps:           advDumps,
			Engine:          staging.Config{Workers: 2},
			PullConcurrency: 2,
		}
		if l.fcfg != nil {
			cfg.Fabric = *l.fcfg
			// The straggler leg triggers at the model estimate itself: the
			// heavy log-normal noise puts roughly half of all pulls past it,
			// so hedges fire reliably instead of only on the distribution tail.
			cfg.Retry = predata.RetryPolicy{HedgeFactor: 1}
		}
		res, wall, err := runGTC(cfg, advPerRank, l.spec, seed, 0)
		if err != nil {
			return fmt.Errorf("bench: %s leg: %w", l.name, err)
		}
		rows = append(rows, advBenchRow(l.name, res, wall))
	}

	fmt.Fprintf(w, "%-22s %8s %9s %7s %7s %7s %7s %6s %7s %6s %5s\n",
		"run", "wall", "goodput", "corrupt", "crcFail", "drops", "fenced", "heals", "hedged", "degr", "loss")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %6dms %7.2fM %7d %7d %7d %7d %6d %7d %6d %5d\n",
			r.Name, r.WallMS, r.GoodputMValS, r.Corruptions, r.CorruptPulls,
			r.CorruptDrops, r.FencedDumps, r.Heals, r.HedgedPulls, r.DegradedDumps, r.DataLoss)
	}

	// The invariants the experiment exists to demonstrate.
	var c checks
	base, wire, source, part, straggler := rows[0], rows[1], rows[2], rows[3], rows[4]
	c.check(base.DataLoss == 0 && base.DegradedDumps == 0, "fault-free leg not clean: %+v", base)
	c.check(wire.Corruptions != 0 && wire.CorruptPulls != 0, "wire leg injected no corruption: %+v", wire)
	c.check(wire.DataLoss == 0 && wire.CorruptDrops == 0 && wire.DegradedDumps == 0,
		"wire corruption must heal losslessly via re-pull: %+v", wire)
	// Persistent source corruption sheds writer 0's chunk every dump —
	// loudly: the loss is exactly one writer's contribution, and every
	// affected dump is marked Degraded.
	c.check(source.CorruptDrops == int64(advDumps), "source leg dropped %d chunks, want %d", source.CorruptDrops, advDumps)
	wantLoss := int64(advPerRank) * 2 * int64(advDumps)
	c.check(source.DataLoss == wantLoss, "source leg lost %d values, want exactly %d (writer 0's share)",
		source.DataLoss, wantLoss)
	c.check(source.DegradedDumps != 0, "source leg shed chunks without declaring degradation: %+v", source)
	c.check(part.Heals == 1 && part.FencedDumps != 0, "partition leg did not fence and heal: %+v", part)
	c.check(part.DataLoss == 0, "partition leg lost %d values across the fence window", part.DataLoss)
	c.check(straggler.HedgedPulls != 0, "straggler leg never hedged: %+v", straggler)
	c.check(straggler.DataLoss == 0 && straggler.DegradedDumps == 0, "straggler leg not lossless: %+v", straggler)
	return c.finish(w, jsonPath, &AdversarySummary{
		Seed: seed, Writers: advCompute, Staging: advStaging, Dumps: advDumps, Runs: rows,
	}, "corruption heals or sheds loudly, partitions fence and heal lossless, stragglers hedge — no silent loss anywhere")
}
