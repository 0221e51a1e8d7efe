package bench

import (
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"predata/internal/predata"
	"predata/internal/staging"
	"predata/internal/trace"
)

// The restart experiment reuses the adversary shape (8 writers, 3
// staging ranks, 4 dumps) and drives the durability layer through its
// three regimes: journaling with nothing going wrong, one rank bouncing
// and rejoining from its journal, and the whole service crashing
// mid-dump and rebuilding by replay. The per-writer particle count
// runs above the adversary's: journaling pays a fixed few commit
// barriers per dump, so the overhead budget (<10% of the dump
// wall-clock) is only meaningful against a dump big enough to measure.
const restPerRank = 8000

// restBounce takes staging index 1 (endpoint 9) down over dumps 1-2; it
// rejoins from its journal at dump 3 while its writers reroute.
const restBounce = "restart:9@1:2"

// restCrashAll kills every staging rank mid-dump 2, after the dump's
// requests and chunks are journaled but before any reduction.
const restCrashAll = "crashall@2"

// restPairs is how many interleaved (no journal, journal clean) pairs
// the journal overhead gate takes its median over.
const restPairs = 10

// RestartRun is one leg of the durability experiment in
// BENCH_restart.json form: goodput plus the journal, checkpoint and
// recovery trajectories.
type RestartRun struct {
	Name   string `json:"name"`
	WallMS int64  `json:"wall_ms"`
	// GoodputMValS is values verifiably reduced per wall second, in
	// millions — the figure journaling overhead and recovery stalls tax.
	GoodputMValS float64 `json:"goodput_mval_s"`
	// Journal trajectory: records and bytes appended, wall time spent
	// inside WAL writes summed across ranks, and that time as a percent
	// of the per-rank dump wall-clock (ranks journal concurrently). One
	// leg's JournalPct is reported, not gated: the gate is the summary's
	// JournalOverheadPct.
	WalRecords int64   `json:"wal_records"`
	WalBytes   int64   `json:"wal_bytes"`
	JournalMS  int64   `json:"journal_ms"`
	JournalPct float64 `json:"journal_pct"`
	// Checkpoint and recovery trajectory: checkpoints cut, ranks
	// restarted, and journal records replayed through the engine.
	Checkpoints int64 `json:"checkpoints"`
	Restarts    int64 `json:"restarts"`
	WalReplayed int64 `json:"wal_replayed"`
	// Reroutes and overload shedding around the bounce window.
	ReroutedDumps int64 `json:"rerouted_dumps"`
	SpilledChunks int64 `json:"spilled_chunks"`
	// DegradedDumps and DataLoss close the ledger: explicit degradation
	// versus silently missing values (always zero — loss is loud).
	DegradedDumps int64 `json:"degraded_dumps"`
	DataLoss      int64 `json:"data_loss"`
}

// RestartSummary is the JSON document the restart experiment emits.
type RestartSummary struct {
	hosted
	Seed    int64 `json:"seed"`
	Writers int   `json:"writers"`
	Staging int   `json:"staging"`
	Dumps   int   `json:"dumps"`
	// JournalOverheadPct is the gated figure: the median JournalPct of
	// JournalPairs clean-journal legs, each interleaved with a no-journal
	// leg. PairedWallPct is the median paired wall-clock cost of
	// journaling over the same pairs.
	JournalOverheadPct float64      `json:"journal_overhead_pct"`
	PairedWallPct      float64      `json:"paired_wall_pct"`
	JournalPairs       int          `json:"journal_pairs"`
	Runs               []RestartRun `json:"runs"`
}

// restBenchRow condenses one leg into its JSON form. Loss is measured
// against the conservation figure: every particle bins exactly twice
// (two histogrammed columns) per dump.
func restBenchRow(name string, res *predata.PipelineResult, wall time.Duration) RestartRun {
	want := int64(advCompute*restPerRank) * 2 * int64(advDumps)
	_, got := census(res, advDumps)
	row := RestartRun{
		Name:     name,
		WallMS:   wall.Milliseconds(),
		DataLoss: want - got,
	}
	if wall > 0 {
		row.GoodputMValS = float64(got) / wall.Seconds() / 1e6
	}
	if f := res.Fault; f != nil {
		row.WalRecords = f.WalRecords
		row.WalBytes = f.WalBytes
		row.JournalMS = f.JournalWall.Milliseconds()
		if wall > 0 && advStaging > 0 {
			// Ranks journal concurrently: the honest overhead figure is
			// the per-rank average journal time against the run's wall.
			row.JournalPct = 100 * f.JournalWall.Seconds() / float64(advStaging) / wall.Seconds()
		}
		row.Checkpoints = f.Checkpoints
		row.Restarts = f.Restarts
		row.WalReplayed = f.WalReplayed
		row.ReroutedDumps = f.ReroutedDumps
		row.DegradedDumps = f.DegradedDumps
	}
	if o := res.Overload; o != nil {
		row.SpilledChunks = o.SpilledChunks
	}
	return row
}

// Restart runs the durability experiment: the same workload without a
// journal, journaling with a checkpoint cadence (measuring the
// overhead), bouncing one staging rank across a two-dump window,
// crashing the whole staging service mid-dump and replaying it back,
// and bouncing a rank while the flow controller is starved. It
// demonstrates the durability contract: a journaled dump is never
// silently lost — every leg either matches the baseline census
// bit-for-bit or declares its degradation — and journaling stays under
// a tenth of the dump wall-clock. When jsonPath is non-empty the legs
// are also written there as JSON.
func Restart(w io.Writer, jsonPath string) error {
	seed, err := faultSeed()
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("Restart — journal, checkpoint and crash-restart recovery (seed %d)", seed))

	// Journal onto memory-backed storage when the host has it: staging
	// nodes journal to fast node-local devices, and the overhead budget
	// below measures the journaling layer itself — framing, CRC, copies,
	// commit barriers — not the bandwidth of whatever disk backs the
	// bench harness's temp directory.
	tmpRoot := ""
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		tmpRoot = "/dev/shm"
	}
	walRoot, err := os.MkdirTemp(tmpRoot, "predata-restart-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walRoot)
	walDir := func(leg string) string { return walRoot + "/" + leg }

	type leg struct {
		name            string
		spec            string
		walDir          string
		checkpointEvery int
		bufferMB        int
	}
	legs := []leg{
		{"no journal", "", "", 0, 0},
		{"journal clean", "", walDir("clean"), 2, 0},
		{"single restart", restBounce, walDir("bounce"), 0, 0},
		{"crashall replay", restCrashAll, walDir("crashall"), 0, 0},
		{"restart overloaded", restBounce, walDir("overload"), 0, 1},
	}

	// run executes one leg over the adversary shape. A non-empty walDir
	// turns on journaling; bufferMB>0 adds the flow controller for the
	// overload leg. The returned recorder holds the leg's flight
	// recording for trace.Verify.
	run := func(spec, walDir string, checkpointEvery, bufferMB int) (*predata.PipelineResult, time.Duration, *trace.Recorder, error) {
		rec := trace.New(trace.Config{NumCompute: advCompute, NumStaging: advStaging, Dumps: advDumps})
		res, wall, err := runGTC(predata.PipelineConfig{
			NumCompute:      advCompute,
			NumStaging:      advStaging,
			Dumps:           advDumps,
			Engine:          staging.Config{Workers: 2},
			PullConcurrency: 2,
			WALDir:          walDir,
			CheckpointEvery: checkpointEvery,
			BufferMB:        bufferMB,
			Tracer:          rec,
		}, restPerRank, spec, seed, 0)
		return res, wall, rec, err
	}

	rows := make([]RestartRun, 0, len(legs))
	censuses := make([][]int64, 0, len(legs))
	recorders := make([]*trace.Recorder, 0, len(legs))
	for _, l := range legs {
		res, wall, rec, err := run(l.spec, l.walDir, l.checkpointEvery, l.bufferMB)
		if err != nil {
			return fmt.Errorf("bench: %s leg: %w", l.name, err)
		}
		perDump, _ := census(res, advDumps)
		rows = append(rows, restBenchRow(l.name, res, wall))
		censuses = append(censuses, perDump)
		recorders = append(recorders, rec)
	}

	// The overhead gate: one clean-journal leg's JournalPct over a
	// ~100 ms run swings by several points with scheduler noise alone,
	// so the gate takes the median over restPairs journaled legs, each
	// interleaved with a no-journal leg (pairedOverhead), which also
	// yields the paired wall-clock cost of journaling.
	var shares []float64
	_, _, wallPct, err := pairedOverhead(restPairs,
		func() (time.Duration, error) {
			_, wall, _, err := run("", "", 0, 0)
			return wall, err
		},
		func() (time.Duration, error) {
			dir := walDir(fmt.Sprintf("pair-%d", len(shares)))
			defer os.RemoveAll(dir)
			res, wall, _, err := run("", dir, 2, 0)
			if err == nil {
				shares = append(shares, restBenchRow("pair", res, wall).JournalPct)
			}
			return wall, err
		})
	if err != nil {
		return fmt.Errorf("bench: journal overhead pairs: %w", err)
	}
	overhead := median(shares)

	fmt.Fprintf(w, "%-20s %8s %9s %8s %9s %8s %6s %5s %7s %6s %5s\n",
		"run", "wall", "goodput", "walRecs", "journal", "ckpts", "rstrt", "rply", "rerout", "degr", "loss")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %6dms %7.2fM %8d %7.2f%% %8d %6d %5d %7d %6d %5d\n",
			r.Name, r.WallMS, r.GoodputMValS, r.WalRecords, r.JournalPct,
			r.Checkpoints, r.Restarts, r.WalReplayed, r.ReroutedDumps, r.DegradedDumps, r.DataLoss)
	}

	fmt.Fprintf(w, "\njournal overhead %.2f%% of dump wall-clock (median of %d paired runs, %.2f%%..%.2f%%); paired wall-clock cost %.2f%%\n",
		overhead, restPairs, shares[0], shares[len(shares)-1], wallPct)

	// The invariants the experiment exists to demonstrate.
	var c checks
	base, clean, bounce, crash, overload := rows[0], rows[1], rows[2], rows[3], rows[4]
	c.check(base.DataLoss == 0 && base.DegradedDumps == 0, "no-journal leg not clean: %+v", base)
	// Journaling must be invisible in the results and cheap on the clock.
	c.check(clean.DataLoss == 0 && clean.DegradedDumps == 0, "clean journal leg not lossless: %+v", clean)
	c.check(slices.Equal(censuses[0], censuses[1]), "journaling changed the per-dump census: %v, want %v", censuses[1], censuses[0])
	c.check(clean.WalRecords != 0 && clean.WalBytes != 0, "clean journal leg appended nothing: %+v", clean)
	wantCkpt := int64(advStaging * advDumps / 2)
	c.check(clean.Checkpoints == wantCkpt, "clean leg cut %d checkpoints, want %d", clean.Checkpoints, wantCkpt)
	c.check(overhead < 10, "journal overhead %.2f%% of dump wall-clock (median of %d pairs), budget is <10%%", overhead, restPairs)
	// The bounce reroutes its writers and rejoins without losing a value.
	c.check(bounce.DataLoss == 0, "single restart leg lost %d values across the bounce", bounce.DataLoss)
	c.check(bounce.Restarts == 1 && bounce.ReroutedDumps != 0, "single restart leg did not bounce and reroute: %+v", bounce)
	// The whole-service crash replays back bit-identical: no degradation
	// anywhere, every rank rebuilt, the crashed dump's chunks replayed.
	c.check(crash.DataLoss == 0 && crash.DegradedDumps == 0, "crashall leg must replay losslessly: %+v", crash)
	c.check(slices.Equal(censuses[0], censuses[3]), "crashall replay diverged from the baseline census: %v, want %v", censuses[3], censuses[0])
	c.check(crash.Restarts == int64(advStaging), "crashall rebuilt %d ranks, want %d", crash.Restarts, advStaging)
	c.check(crash.WalReplayed == int64(advCompute), "crashall replayed %d chunks, want %d", crash.WalReplayed, advCompute)
	// The flight recording must prove it: replays matched to journal
	// appends byte-for-byte and no chunk reduced by two incarnations.
	if rep, err := trace.Verify(recorders[3].Snapshot()); err != nil {
		c.check(false, "crashall leg failed trace verification: %w", err)
	} else {
		c.check(rep.WALChecks != 0 && rep.ExclusivityChecks != 0, "crashall recording ran no WAL/restart checks: %+v", rep)
	}
	// Bouncing under a starved flow controller may shed, but only loudly.
	c.check(overload.Restarts == 1, "overloaded restart leg did not bounce: %+v", overload)
	c.check(overload.DataLoss == 0 || overload.DegradedDumps != 0, "overloaded restart leg lost %d values silently", overload.DataLoss)
	return c.finish(w, jsonPath, &RestartSummary{
		Seed: seed, Writers: advCompute, Staging: advStaging, Dumps: advDumps,
		JournalOverheadPct: overhead, PairedWallPct: wallPct, JournalPairs: restPairs, Runs: rows,
	}, "bounced ranks rejoin from their journals, a whole-service crash replays back bit-identical, journaling costs under a tenth of the dump — no silent loss anywhere")
}
