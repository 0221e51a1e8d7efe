package predata

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"predata/internal/elastic"
	"predata/internal/fabric"
	"predata/internal/faults"
	"predata/internal/trace"
)

// Adversarial-wire soak: corrupt, partition and degrade legs under each
// seed, with the flight recorder on. The acceptance invariant is the
// tentpole's: every dump's Reduce output is either bit-identical to the
// fault-free run or explicitly marked Degraded — never silently wrong —
// and the recording passes every trace.Verify rule, including the
// corruption-quarantine, at-most-once and hedge-resolution checks.

const (
	advCompute = 8
	advStaging = 3
	advDumps   = 4
	advPerRank = 20
)

// advPartition cuts staging index 2 (endpoint 10) away from the other
// two staging ranks over dumps 1-2: it loses quorum (reaches 1 of 3
// live) and is fenced, while endpoints 8 and 9 keep a strict majority.
const advPartition = "partition:10|8,9@1-2"

func advRun(t *testing.T, spec string, seed int64) (*PipelineResult, *trace.Recording, *trace.VerifyReport) {
	t.Helper()
	cfg := PipelineConfig{
		NumCompute: advCompute,
		NumStaging: advStaging,
		Dumps:      advDumps,
		Timeout:    2 * time.Minute,
	}
	if spec != "" {
		plan, err := faults.ParsePlan(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FaultPlan = &plan
	}
	recorder := trace.New(trace.Config{
		NumCompute: cfg.NumCompute,
		NumStaging: cfg.NumStaging,
		Dumps:      cfg.Dumps,
	})
	cfg.Tracer = recorder
	res, err := RunPipeline(cfg, chaoticCompute(cfg.Dumps, advPerRank), countOps)
	if err != nil {
		t.Fatal(err)
	}
	rec := recorder.Snapshot()
	rep, err := trace.Verify(rec)
	if err != nil {
		t.Fatalf("trace.Verify: %v", err)
	}
	return res, rec, rep
}

// advCheckConserved asserts the per-dump data-conservation invariant
// (every writer's values counted exactly once somewhere) and the
// bit-identical-or-Degraded contract against the clean run.
func advCheckConserved(t *testing.T, clean, got *PipelineResult) {
	t.Helper()
	for dump := 0; dump < advDumps; dump++ {
		var total int64
		for rank := 0; rank < advStaging; rank++ {
			if dump >= len(got.StagingResults[rank]) {
				continue // crashed rank
			}
			r := got.StagingResults[rank][dump]
			if n, ok := r.PerOperator["count"]["n"].(int64); ok {
				total += n
			}
			if !r.Degraded && !reflect.DeepEqual(r.PerOperator, clean.StagingResults[rank][dump].PerOperator) {
				t.Errorf("rank %d dump %d: not Degraded yet differs from the fault-free run:\ngot   %v\nclean %v",
					rank, dump, r.PerOperator, clean.StagingResults[rank][dump].PerOperator)
			}
		}
		if total != advCompute*advPerRank {
			t.Errorf("dump %d counted %d values, want %d", dump, total, advCompute*advPerRank)
		}
	}
}

func TestAdversarySoak(t *testing.T) {
	for _, seed := range confSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			clean, _, _ := advRun(t, "", seed)

			t.Run("corrupt", func(t *testing.T) {
				// Wire corruption heals on re-pull: zero loss, zero
				// degradation, bit-identical output.
				res, rec, _ := advRun(t, "corrupt:*:0.15:pull", seed)
				advCheckConserved(t, clean, res)
				rep := res.Fault
				if rep == nil {
					t.Fatal("no fault report")
				}
				if rep.Corruptions == 0 || rep.CorruptPulls == 0 {
					t.Errorf("p=0.15 corrupt plan fired %d corruptions, %d CRC failures",
						rep.Corruptions, rep.CorruptPulls)
				}
				if rep.CorruptDrops != 0 || rep.Drops != 0 || rep.DegradedDumps != 0 {
					t.Errorf("wire corruption must heal transparently: %+v", rep)
				}
				if !hasPhase(rec, trace.PhaseCorrupt) || !hasPhase(rec, trace.PhaseCorruptDetect) {
					t.Error("corruption fired but left no trace events")
				}
			})

			t.Run("partition", func(t *testing.T) {
				// Staging index 2 is fenced for dumps 1-2 and heals at 3:
				// zero loss, the fence window explicitly Degraded, and the
				// healed rank's final dump identical to the clean run.
				res, rec, vrep := advRun(t, advPartition, seed)
				advCheckConserved(t, clean, res)
				rep := res.Fault
				if rep == nil {
					t.Fatal("no fault report")
				}
				if rep.Heals != 1 {
					t.Errorf("Heals = %d, want 1", rep.Heals)
				}
				if rep.FencedDumps != 2 {
					t.Errorf("FencedDumps = %d, want 2", rep.FencedDumps)
				}
				if rep.Drops != 0 {
					t.Errorf("partition recovery dropped %d chunks; fencing must be lossless", rep.Drops)
				}
				if rep.ReroutedDumps == 0 {
					t.Error("no client writes rerouted around the fenced rank")
				}
				for dump := 1; dump <= 2; dump++ {
					st := res.StagingStats[2][dump]
					if !st.Fenced || !st.Degraded {
						t.Errorf("fenced rank's dump %d stats: %+v, want Fenced+Degraded", dump, st)
					}
				}
				if res.StagingStats[2][3].Fenced {
					t.Error("rank 2 still fenced after its window closed")
				}
				if got := res.StagingResults[2][3]; got.Degraded ||
					!reflect.DeepEqual(got.PerOperator, clean.StagingResults[2][3].PerOperator) {
					t.Errorf("healed rank's dump 3 diverged from the fault-free run: %+v", got.PerOperator)
				}
				if !hasPhase(rec, trace.PhaseProbe) || !hasPhase(rec, trace.PhaseHeal) {
					t.Error("fence window left no probe/heal trace events")
				}
				if vrep.ExclusivityChecks == 0 {
					t.Errorf("heal recorded but exclusivity unchecked: %+v", vrep)
				}
			})

			t.Run("combined", func(t *testing.T) {
				// Corruption, the fence window and a degrade slowdown all at
				// once: conservation and the Degraded contract still hold.
				res, _, _ := advRun(t,
					"corrupt:*:0.1:pull;"+advPartition+";degrade:3:1-2:4", seed)
				advCheckConserved(t, clean, res)
				rep := res.Fault
				if rep == nil {
					t.Fatal("no fault report")
				}
				if rep.Heals != 1 || rep.Drops != 0 || rep.CorruptDrops != 0 {
					t.Errorf("combined leg lost data: %+v", rep)
				}
			})
		})
	}
}

// TestSourceCorruptionFallsThroughToShed: a send-site corruption
// persists across re-pulls (the source copy is bad), so after the
// attempt budget the chunk is shed like an overloaded one — the dump
// completes without it, explicitly Degraded, and the FaultReport
// accounts the whole trajectory. The trace's corruption-quarantine rule
// proves the damaged bytes never reached Reduce.
func TestSourceCorruptionFallsThroughToShed(t *testing.T) {
	clean, _, _ := advRun(t, "", 1)
	res, rec, vrep := advRun(t, "corrupt:0:1:send", 1)
	rep := res.Fault
	if rep == nil {
		t.Fatal("no fault report")
	}
	if rep.CorruptDrops != advDumps {
		t.Errorf("CorruptDrops = %d, want %d (writer 0's chunk every dump)", rep.CorruptDrops, advDumps)
	}
	if rep.Corruptions == 0 || rep.CorruptPulls == 0 {
		t.Errorf("source corruption fired %d corruptions, %d CRC failures", rep.Corruptions, rep.CorruptPulls)
	}
	if rep.Drops != 0 {
		t.Errorf("crash-style drops %d, want 0 — the endpoint is up, only its bytes are bad", rep.Drops)
	}
	for dump := 0; dump < advDumps; dump++ {
		var total int64
		degraded := false
		for rank := 0; rank < advStaging; rank++ {
			r := res.StagingResults[rank][dump]
			if n, ok := r.PerOperator["count"]["n"].(int64); ok {
				total += n
			}
			degraded = degraded || r.Degraded
		}
		if want := int64((advCompute - 1) * advPerRank); total != want {
			t.Errorf("dump %d counted %d values, want %d (all but the bad writer)", dump, total, want)
		}
		if !degraded {
			t.Errorf("dump %d lost a chunk without being marked Degraded", dump)
		}
	}
	// The rank serving writer 0 still reduced every other writer it owns.
	idx := DefaultRoute(0, advCompute, advStaging)
	if reflect.DeepEqual(res.StagingResults[idx][0].PerOperator, clean.StagingResults[idx][0].PerOperator) {
		t.Error("serving rank's output unchanged despite the shed chunk")
	}
	if !hasPhase(rec, trace.PhaseCorruptDrop) {
		t.Error("no corrupt-drop trace event")
	}
	if vrep.CorruptChecks == 0 {
		t.Errorf("corrupt drops recorded but quarantine unchecked: %+v", vrep)
	}
}

// TestHedgedPullsUnderStraggler: on a paced fabric with heavy log-normal
// transfer noise, slow pulls blow the bandwidth-model deadline, hedges
// fire, and every race resolves — with zero data loss and no
// degradation. The trace's hedge-resolution rule checks the races from
// the recording alone.
func TestHedgedPullsUnderStraggler(t *testing.T) {
	fcfg := fabric.DefaultConfig(advCompute + advStaging)
	fcfg.PaceScale = 50
	fcfg.VarSigma = 2.0
	recorder := trace.New(trace.Config{
		NumCompute: advCompute, NumStaging: advStaging, Dumps: advDumps,
	})
	res, err := RunPipeline(PipelineConfig{
		NumCompute: advCompute,
		NumStaging: advStaging,
		Dumps:      advDumps,
		Fabric:     fcfg,
		Timeout:    2 * time.Minute,
		Tracer:     recorder,
		// Trigger at the model estimate itself (factor 1, floor below the
		// paced wall) so roughly half the noise distribution hedges —
		// with 32 pulls per run the default tail-only trigger can go a
		// whole run without firing and flake.
		Retry: RetryPolicy{HedgeFactor: 1, HedgeFloor: 200 * time.Microsecond},
	}, chaoticCompute(advDumps, advPerRank), countOps)
	if err != nil {
		t.Fatal(err)
	}
	rec := recorder.Snapshot()
	rep, err := trace.Verify(rec)
	if err != nil {
		t.Fatalf("trace.Verify: %v", err)
	}
	var hedged, wins int
	for _, rankStats := range res.StagingStats {
		for _, st := range rankStats {
			hedged += st.HedgedPulls
			wins += st.HedgeWins
			if st.Drops != 0 || st.CorruptDrops != 0 || st.Degraded {
				t.Errorf("straggler leg lost data: %+v", st)
			}
		}
	}
	if hedged == 0 {
		t.Fatalf("no hedged pulls under VarSigma %g, PaceScale %g (wins %d)", fcfg.VarSigma, fcfg.PaceScale, wins)
	}
	if rep.HedgeChecks == 0 {
		t.Errorf("hedges fired but races unchecked: %+v", rep)
	}
	for dump := 0; dump < advDumps; dump++ {
		var total int64
		for rank := 0; rank < advStaging; rank++ {
			if n, ok := res.StagingResults[rank][dump].PerOperator["count"]["n"].(int64); ok {
				total += n
			}
		}
		if total != advCompute*advPerRank {
			t.Errorf("dump %d counted %d values, want %d", dump, total, advCompute*advPerRank)
		}
	}
}

// TestHedgingDisabledByNegativeFactor: HedgeFactor < 0 switches the
// straggler protection off — the same noisy fabric records no hedges.
func TestHedgingDisabledByNegativeFactor(t *testing.T) {
	fcfg := fabric.DefaultConfig(advCompute + advStaging)
	fcfg.PaceScale = 50
	fcfg.VarSigma = 2.0
	res, err := RunPipeline(PipelineConfig{
		NumCompute: advCompute,
		NumStaging: advStaging,
		Dumps:      2,
		Fabric:     fcfg,
		Timeout:    2 * time.Minute,
		Retry:      RetryPolicy{HedgeFactor: -1},
	}, chaoticCompute(2, advPerRank), countOps)
	if err != nil {
		t.Fatal(err)
	}
	for _, rankStats := range res.StagingStats {
		for _, st := range rankStats {
			if st.HedgedPulls != 0 {
				t.Fatalf("hedging disabled yet %d pulls hedged", st.HedgedPulls)
			}
		}
	}
}

// TestPartitionPlanValidation: partition endpoints must exist in the
// job — on the elastic path too, which shares the pipeline's plan
// validation (and composes with in-job partitions: see
// TestElasticPartitionFenceHeal).
func TestPartitionPlanValidation(t *testing.T) {
	plan, err := faults.ParsePlan("partition:99|8,9@1-2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPipeline(PipelineConfig{
		NumCompute: advCompute, NumStaging: advStaging, Dumps: 1, FaultPlan: &plan,
	}, chaoticCompute(1, 1), countOps); err == nil {
		t.Error("partition endpoint outside the job accepted")
	}
	if _, _, err := RunElastic(PipelineConfig{
		NumCompute: advCompute, NumStaging: advStaging, Dumps: 1, FaultPlan: &plan,
	}, ElasticConfig{Policy: elastic.Policy{Min: 1, Max: 1}},
		chaoticCompute(1, 1), countOps); err == nil {
		t.Error("elastic run accepted a partition endpoint outside the job")
	}
}
