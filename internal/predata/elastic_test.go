package predata

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"predata/internal/apps/xray"
	"predata/internal/dataspaces"
	"predata/internal/elastic"
	"predata/internal/fabric"
	"predata/internal/faults"
	"predata/internal/ffs"
	"predata/internal/flowctl"
	"predata/internal/mpi"
	"predata/internal/staging"
	"predata/internal/trace"
	"predata/internal/wal"
)

// TestReconfigureHardened covers the membership-epoch contract on its
// own: epochs only move forward, redelivery of the installed epoch is
// an idempotent no-op, and a different communicator offered for the
// installed epoch means two membership derivations diverged.
func TestReconfigureHardened(t *testing.T) {
	fab, err := fabric.New(fabric.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Shutdown()
	ep, err := fab.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(1, func(world *mpi.Comm) error {
		s, err := NewServer(ServerConfig{
			StagingIndex: 0,
			Comm:         world,
			Endpoint:     ep,
			NumCompute:   1,
		})
		if err != nil {
			return err
		}
		if got := s.Epoch(); got != -1 {
			return fmt.Errorf("fresh server epoch %d, want -1", got)
		}
		sub1, err := world.Split(0, 0)
		if err != nil {
			return err
		}
		sub2, err := world.Split(0, 0)
		if err != nil {
			return err
		}

		if err := s.Reconfigure(nil, 0, 0); err == nil ||
			!strings.Contains(err.Error(), "nil communicator") {
			return fmt.Errorf("nil comm: got %v", err)
		}
		if err := s.Reconfigure(sub1, 0, 0); err != nil {
			return fmt.Errorf("installing epoch 0: %v", err)
		}
		if got := s.Epoch(); got != 0 {
			return fmt.Errorf("epoch after install %d, want 0", got)
		}
		// Idempotent redelivery: same epoch, same communicator.
		if err := s.Reconfigure(sub1, 0, time.Second); err != nil {
			return fmt.Errorf("idempotent redelivery rejected: %v", err)
		}
		// Conflicting communicator for the installed epoch.
		if err := s.Reconfigure(sub2, 0, 0); err == nil ||
			!strings.Contains(err.Error(), "diverged") {
			return fmt.Errorf("conflicting comm for epoch 0: got %v", err)
		}
		// Stale delivery: the epoch moved backwards.
		if err := s.Reconfigure(sub2, -1, 0); err == nil ||
			!strings.Contains(err.Error(), "moved backwards") {
			return fmt.Errorf("backwards epoch: got %v", err)
		}
		// And a clean forward move still works after the rejections.
		if err := s.Reconfigure(sub2, 3, 0); err != nil {
			return fmt.Errorf("installing epoch 3: %v", err)
		}
		if got := s.Epoch(); got != 3 {
			return fmt.Errorf("epoch after forward move %d, want 3", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runElasticTraced executes one traced elastic run and fails t on any
// pipeline error or trace.Verify violation.
func runElasticTraced(t *testing.T, cfg PipelineConfig, ecfg ElasticConfig,
	computeFn ComputeFunc, opsFor OperatorFactory) (*PipelineResult, *ScaleReport, *trace.Recording, *trace.VerifyReport) {
	t.Helper()
	recorder := trace.New(trace.Config{
		NumCompute: cfg.NumCompute,
		NumStaging: cfg.NumStaging,
		Dumps:      cfg.Dumps,
	})
	cfg.Tracer = recorder
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Minute
	}
	res, scale, err := RunElastic(cfg, ecfg, computeFn, opsFor)
	if err != nil {
		t.Fatal(err)
	}
	rec := recorder.Snapshot()
	rep, err := trace.Verify(rec)
	if err != nil {
		t.Fatalf("trace.Verify: %v", err)
	}
	return res, scale, rec, rep
}

// xrayCompute drives the pipeline with the detector-frame proxy: every
// rank follows the same explicit burst schedule, so dump sizes jump by
// the chosen factors in lockstep.
func xrayCompute(dumps, baseFrames int, factors []float64, seed int64) ComputeFunc {
	return func(comm *mpi.Comm, client *Client) error {
		det, err := xray.New(xray.Config{
			Rank:       comm.Rank(),
			NumRanks:   comm.Size(),
			BaseFrames: baseFrames,
			Steps:      dumps,
			Seed:       seed,
			Schedule:   factors,
		})
		if err != nil {
			return err
		}
		schema := xray.Schema()
		for step := 0; step < dumps; step++ {
			if _, err := client.Write(schema, ffs.Record{"frames": det.Frames(int64(step))}, int64(step)); err != nil {
				return err
			}
		}
		return nil
	}
}

// xrayTotalFrames returns one rank's frame count over an explicit
// schedule — the conservation figure, identical on every rank.
func xrayTotalFrames(baseFrames int, factors []float64) int64 {
	var n int64
	for _, f := range factors {
		n += int64(math.Round(float64(baseFrames) * f))
	}
	return n
}

// frameCountOp counts detector frames across chunks, shuffling the
// per-chunk counts to one reducer so conservation sums are exact.
type frameCountOp struct {
	mu sync.Mutex
	n  int64
}

func (c *frameCountOp) Name() string { return "frames" }
func (c *frameCountOp) Initialize(ctx *staging.Context, agg map[string]any) error {
	return nil
}
func (c *frameCountOp) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	if arr, ok := chunk.Record["frames"].(*ffs.Array); ok && len(arr.Dims) == 2 {
		ctx.Emit(0, int64(arr.Dims[0]))
	}
	return nil
}
func (c *frameCountOp) Reduce(ctx *staging.Context, tag int, values []any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range values {
		c.n += v.(int64)
	}
	return nil
}
func (c *frameCountOp) Finalize(ctx *staging.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx.SetResult("n", c.n)
	return nil
}

func frameCountOps(dump int) []staging.Operator {
	return []staging.Operator{&frameCountOp{}}
}

// sumFrameCounts folds every staging rank's per-dump "frames" results —
// each emitted chunk count lands in exactly one reducer, so the grand
// total equals the frames written iff nothing was lost or double-reduced.
func sumFrameCounts(res *PipelineResult) int64 {
	var total int64
	for _, dumps := range res.StagingResults {
		for _, r := range dumps {
			if r == nil {
				continue
			}
			if n, ok := r.PerOperator["frames"]["n"].(int64); ok {
				total += n
			}
		}
	}
	return total
}

// burstFactors is the canonical soak schedule: one quiet warmup dump, a
// sustained 80x burst, then a quiet tail — enough pressure to grow the
// pool and enough idle time to shrink it back.
var burstFactors = []float64{1, 80, 80, 80, 80, 80, 1, 1, 1, 1}

const (
	burstBaseFrames = 200 // quiet dump: 200 frames x 5 attrs x 8 B = 8 KB/rank
	burstSeed       = 7
)

// elasticSoakConfig is the shared pipeline shape of the soak legs: a
// 1 MiB budget that a burst dump overruns by ~5x on a single active
// rank, with short patience so overload escalates to spilling fast, and
// spill/pass limits high enough that no chunk is shed or passed raw —
// every frame flows through the operators and conservation is exact.
func elasticSoakConfig(t *testing.T, numStaging int) PipelineConfig {
	t.Helper()
	return PipelineConfig{
		NumCompute:      8,
		NumStaging:      numStaging,
		Dumps:           len(burstFactors),
		PullConcurrency: 4,
		BufferMB:        1,
		Overload: flowctl.Policy{
			Patience:        time.Millisecond,
			SpillDir:        t.TempDir(),
			SpillLimitBytes: 1 << 40,
			PassLimitBytes:  1 << 40,
		},
	}
}

// TestElasticGrowsUnderBurstThenShrinks: the detector burst trips the
// overload latch for consecutive dumps, the pool grows via the rehash
// path onto parked reserve ranks (handing DataSpaces shards to the
// joiners), and once the burst collapses the idle pool drains back down
// — all stamped into the flight recorder and verified.
func TestElasticGrowsUnderBurstThenShrinks(t *testing.T) {
	space, err := dataspaces.New(dataspaces.Config{
		Servers: 1,
		Domain:  dataspaces.Domain{Dims: []uint64{64, 64}, BlockSize: []uint64{8, 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]float64, 64*64)
	for i := range cells {
		cells[i] = float64(i)
	}
	if err := space.Put("state", 0, []uint64{0, 0}, []uint64{64, 64}, cells); err != nil {
		t.Fatal(err)
	}

	cfg := elasticSoakConfig(t, 3)
	res, scale, rec, rep := runElasticTraced(t, cfg, ElasticConfig{
		Policy: elastic.Policy{Min: 1, Max: 3, GrowK: 2, ShrinkJ: 2, Cooldown: 1},
		Space:  space,
	}, xrayCompute(cfg.Dumps, burstBaseFrames, burstFactors, burstSeed), frameCountOps)

	if scale.Grows < 1 {
		t.Errorf("burst run grew %d times, want >= 1: %+v", scale.Grows, scale)
	}
	if scale.Shrinks < 1 {
		t.Errorf("idle tail shrank %d times, want >= 1: %+v", scale.Shrinks, scale)
	}
	if scale.MinActive != 1 || scale.MaxActive < 2 {
		t.Errorf("active range [%d, %d], want [1, >=2]", scale.MinActive, scale.MaxActive)
	}
	if len(scale.Epochs) < 3 { // initial + at least one grow + one shrink
		t.Errorf("%d membership epochs, want >= 3: %+v", len(scale.Epochs), scale.Epochs)
	}
	if scale.RankDumps <= int64(cfg.Dumps) {
		t.Errorf("RankDumps %d, want > %d (pool above Min for part of the run)",
			scale.RankDumps, cfg.Dumps)
	}
	// The shard handoff must have moved cells at some resize and lost none.
	var moved int64
	for _, ep := range scale.Epochs {
		moved += ep.HandoffCells
	}
	if moved == 0 {
		t.Error("no DataSpaces cells moved across any resize")
	}
	if got := space.MemoryCells(); got != 64*64 {
		t.Errorf("space holds %d cells after resizes, want %d", got, 64*64)
	}

	// Conservation: every frame written reduces exactly once.
	want := int64(cfg.NumCompute) * xrayTotalFrames(burstBaseFrames, burstFactors)
	if got := sumFrameCounts(res); got != want {
		t.Errorf("counted %d frames across the run, want %d", got, want)
	}

	// The recording must carry the elastic structures the verifier checks.
	if rep.ScaleEpochs < 2 {
		t.Errorf("verifier cross-checked %d scale epochs, want >= 2", rep.ScaleEpochs)
	}
	if rep.ChunkChecks != cfg.Dumps {
		t.Errorf("chunk conservation checked %d dumps, want %d", rep.ChunkChecks, cfg.Dumps)
	}
	for _, ph := range []trace.Phase{trace.PhaseScale, trace.PhaseScaleEpoch,
		trace.PhaseHandoff, trace.PhaseDrain, trace.PhaseSpill} {
		if !hasPhase(rec, ph) {
			t.Errorf("recording has no %v events", ph)
		}
	}
	if rec.Dropped != 0 {
		t.Errorf("recording dropped %d events", rec.Dropped)
	}
}

// TestElasticShrinksWhenIdle: a pool started at Max with a light steady
// workload retires ranks one cooldown at a time — drain-then-Split, with
// the retired ranks silent afterwards (trace.Verify checks the silence).
func TestElasticShrinksWhenIdle(t *testing.T) {
	const perRank = 20
	cfg := PipelineConfig{
		NumCompute: 8,
		NumStaging: 3,
		Dumps:      8,
		BufferMB:   4,
		Overload: flowctl.Policy{
			SpillDir: t.TempDir(),
		},
	}
	recorder := trace.New(trace.Config{
		NumCompute: cfg.NumCompute,
		NumStaging: cfg.NumStaging,
		Dumps:      cfg.Dumps,
	})
	cfg.Tracer = recorder
	cfg.Timeout = 2 * time.Minute
	res, scale, err := RunElastic(cfg, ElasticConfig{
		Policy: elastic.Policy{Min: 1, Max: 3, GrowK: 2, ShrinkJ: 2, Cooldown: 1},
		Start:  3,
	}, chaoticCompute(cfg.Dumps, perRank), countOps)
	if err != nil {
		t.Fatal(err)
	}
	rec := recorder.Snapshot()
	rep, err := trace.Verify(rec)
	if err != nil {
		t.Fatalf("trace.Verify: %v", err)
	}

	if scale.Shrinks < 2 {
		t.Errorf("idle pool shrank %d times, want >= 2: %+v", scale.Shrinks, scale)
	}
	if scale.FinalActive != 1 {
		t.Errorf("final active count %d, want 1", scale.FinalActive)
	}
	if scale.MaxActive != 3 || scale.MinActive != 1 {
		t.Errorf("active range [%d, %d], want [1, 3]", scale.MinActive, scale.MaxActive)
	}
	if scale.Grows != 0 {
		t.Errorf("idle pool grew %d times", scale.Grows)
	}
	if !hasPhase(rec, trace.PhaseDrain) {
		t.Error("no drain span recorded for any retiring rank")
	}
	if rep.ScaleEpochs < 2 {
		t.Errorf("verifier cross-checked %d scale epochs, want >= 2", rep.ScaleEpochs)
	}

	// Conservation: the steady workload's values all reduce exactly once.
	var total int64
	for _, dumps := range res.StagingResults {
		for _, r := range dumps {
			if r == nil {
				continue
			}
			if n, ok := r.PerOperator["count"]["n"].(int64); ok {
				total += n
			}
		}
	}
	if want := int64(cfg.NumCompute) * int64(cfg.Dumps) * perRank; total != want {
		t.Errorf("counted %d values, want %d", total, want)
	}
}

// TestElasticCrashDuringGrow is the elasticity soak's hardest leg: the
// burst grows the pool, and the freshly joined rank crashes one dump
// later, forcing a fault-epoch on top of the elastic epoch. Under every
// seed the run must finish with zero lost or double-reduced frames and
// a recording that passes every resize invariant.
func TestElasticCrashDuringGrow(t *testing.T) {
	const (
		crashIdx  = 1 // joins at the first grow (set [0 1]), dies a dump later
		crashDump = 4
	)
	for _, seed := range confSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := elasticSoakConfig(t, 4)
			plan, err := faults.ParsePlan(
				fmt.Sprintf("crash:%d@%d", cfg.NumCompute+crashIdx, crashDump), seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg.FaultPlan = &plan
			res, scale, rec, rep := runElasticTraced(t, cfg, ElasticConfig{
				Policy: elastic.Policy{Min: 1, Max: 4, GrowK: 2, ShrinkJ: 4, Cooldown: 1},
			}, xrayCompute(cfg.Dumps, burstBaseFrames, burstFactors, seed), frameCountOps)

			if scale.Grows < 1 {
				t.Fatalf("crash leg never grew: %+v", scale)
			}
			if !hasPhase(rec, trace.PhaseCrashExit) {
				t.Error("no crash-exit event recorded")
			}
			if !hasPhase(rec, trace.PhaseScaleEpoch) {
				t.Error("no scale-epoch events recorded")
			}

			// Zero lost, zero double-reduced: exact frame conservation even
			// with the crash landing inside the grow.
			want := int64(cfg.NumCompute) * xrayTotalFrames(burstBaseFrames, burstFactors)
			if got := sumFrameCounts(res); got != want {
				t.Errorf("counted %d frames, want %d", got, want)
			}
			if rep.ScaleEpochs < 2 {
				t.Errorf("verifier cross-checked %d scale epochs, want >= 2", rep.ScaleEpochs)
			}
			if rep.ChunkChecks != cfg.Dumps {
				t.Errorf("chunk conservation checked %d dumps, want %d", rep.ChunkChecks, cfg.Dumps)
			}
			if res.Fault == nil || len(res.Fault.CrashedStaging) != 1 {
				t.Errorf("fault report %+v, want one crashed staging rank", res.Fault)
			}
		})
	}
}

// elasticFaultLeg runs one traced elastic soak leg under plan spec at
// seed — 4 provisioned staging ranks, a pool of at least 2, journaled
// under a fresh WALDir — and asserts the composition invariants every
// fault class must keep: exact frame conservation and a recording that
// passes trace.Verify with the at-most-once rule engaged.
func elasticFaultLeg(t *testing.T, spec string, seed int64) (*PipelineResult, *trace.Recording, *trace.VerifyReport) {
	t.Helper()
	cfg := elasticSoakConfig(t, 4)
	cfg.WALDir = t.TempDir()
	plan, err := faults.ParsePlan(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultPlan = &plan
	res, _, rec, rep := runElasticTraced(t, cfg, ElasticConfig{
		Policy: elastic.Policy{Min: 2, Max: 4, GrowK: 2, ShrinkJ: 4, Cooldown: 1},
	}, xrayCompute(cfg.Dumps, burstBaseFrames, burstFactors, seed), frameCountOps)
	want := int64(cfg.NumCompute) * xrayTotalFrames(burstBaseFrames, burstFactors)
	if got := sumFrameCounts(res); got != want {
		t.Errorf("counted %d frames, want %d", got, want)
	}
	if rep.ScaleEpochs < 2 || rep.ExclusivityChecks == 0 {
		t.Errorf("verifier cross-checked %d scale epochs and %d chunks, want >= 2 and > 0",
			rep.ScaleEpochs, rep.ExclusivityChecks)
	}
	if rep.ChunkChecks != cfg.Dumps {
		t.Errorf("chunk coverage checked %d dumps, want %d", rep.ChunkChecks, cfg.Dumps)
	}
	if res.Fault == nil {
		t.Fatal("fault plan produced no fault report")
	}
	return res, rec, rep
}

// TestElasticPartitionFenceHeal: a partition cuts staging index 1 —
// serving in the initial pool of 2 — away from the other three over
// dumps 1-3. It loses quorum and is fenced, a reserve rank takes its
// place in the pool, and once the window closes it heals back in.
func TestElasticPartitionFenceHeal(t *testing.T) {
	for _, seed := range confSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res, rec, _ := elasticFaultLeg(t, "partition:9|8,10,11@1-3", seed)
			if res.Fault.FencedDumps == 0 || res.Fault.Heals == 0 {
				t.Errorf("fence leg fenced %d dumps and healed %d times, want both > 0",
					res.Fault.FencedDumps, res.Fault.Heals)
			}
			if !hasPhase(rec, trace.PhaseProbe) || !hasPhase(rec, trace.PhaseHeal) {
				t.Error("no quorum probe or heal recorded")
			}
		})
	}
}

// TestElasticRestartRejoins: staging index 1 bounces over dumps 2-3 in
// the middle of the burst. A reserve rank takes its place in the pool,
// and the bounced rank rebuilds from its journal when the window closes.
func TestElasticRestartRejoins(t *testing.T) {
	for _, seed := range confSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res, rec, _ := elasticFaultLeg(t, "restart:9@2:2", seed)
			if res.Fault.Restarts != 1 {
				t.Errorf("Restarts = %d, want 1", res.Fault.Restarts)
			}
			if !hasPhase(rec, trace.PhaseRestart) {
				t.Error("no restart recorded")
			}
		})
	}
}

// TestElasticCrashAllReplays: the whole staging service crashes mid
// dump 3, at the height of the burst. Every live rank rebuilds from its
// journal under a fresh epoch, and the serving ranks finish the dump by
// replaying every journaled chunk.
func TestElasticCrashAllReplays(t *testing.T) {
	for _, seed := range confSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res, _, rep := elasticFaultLeg(t, "crashall@3", seed)
			if res.Fault.Restarts != 4 {
				t.Errorf("Restarts = %d, want 4 (every live rank rebuilt)", res.Fault.Restarts)
			}
			if res.Fault.WalReplayed != 8 {
				t.Errorf("WalReplayed = %d, want 8 (every chunk of the crashed dump)", res.Fault.WalReplayed)
			}
			if rep.WALChecks == 0 {
				t.Error("no WAL replay fidelity checks ran")
			}
		})
	}
}

// TestElasticDurableJournalsAndCheckpoints: an elastic run with a
// journal directory and a checkpoint cadence journals and checkpoints
// under every rank that served, and its recording orders every
// truncation behind a covering checkpoint.
func TestElasticDurableJournalsAndCheckpoints(t *testing.T) {
	cfg := elasticSoakConfig(t, 3)
	cfg.WALDir = t.TempDir()
	cfg.CheckpointEvery = 2
	res, _, _, rep := runElasticTraced(t, cfg, ElasticConfig{
		Policy: elastic.Policy{Min: 1, Max: 3, GrowK: 2, ShrinkJ: 2, Cooldown: 1},
	}, xrayCompute(cfg.Dumps, burstBaseFrames, burstFactors, burstSeed), frameCountOps)
	if rep.CheckpointChecks == 0 {
		t.Errorf("no checkpoint-before-truncate checks ran: %+v", rep)
	}
	if res.Fault == nil || res.Fault.WalRecords == 0 || res.Fault.Checkpoints == 0 {
		t.Fatalf("journaled elastic run reports %+v, want WAL records and checkpoints", res.Fault)
	}
	servedRanks := 0
	for idx, stats := range res.StagingStats {
		if len(stats) == 0 {
			continue // never served
		}
		servedRanks++
		dir := filepath.Join(cfg.WALDir, fmt.Sprintf("rank-%d", cfg.NumCompute+idx))
		st, err := wal.Recover(dir)
		if err != nil {
			t.Fatalf("staging rank %d: %v", idx, err)
		}
		if st.Records == 0 && !st.HaveCheckpoint {
			t.Errorf("staging rank %d served but journaled nothing under %s", idx, dir)
		}
		if !st.HaveCheckpoint {
			t.Errorf("staging rank %d served but wrote no checkpoint under %s", idx, dir)
		}
	}
	if servedRanks < 2 {
		t.Errorf("%d ranks served, want the burst to grow the pool past 1", servedRanks)
	}
}
