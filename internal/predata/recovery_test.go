package predata

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"predata/internal/fabric"
	"predata/internal/faults"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/staging"
)

func TestRetryPolicyBackoffBounds(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	if p != DefaultRetryPolicy() {
		t.Errorf("zero policy resolved to %+v", p)
	}
	for retry := 0; retry < 20; retry++ {
		d := p.backoff(retry)
		if d < p.BaseDelay/2 || d > p.MaxDelay*3/2 {
			t.Errorf("backoff(%d) = %v outside [%v, %v]", retry, d, p.BaseDelay/2, p.MaxDelay*3/2)
		}
	}
}

// effectiveRoute resolves writerRank's staging index at dump through a
// fixed-size pool's membership view.
func effectiveRoute(route RouteFunc, inj *faults.Injector, writerRank, numCompute, numStaging, stagingBase int, dump int64) (int, bool, error) {
	m := newMembership(inj, stagingBase, numStaging, nil)
	pool, active, err := m.view(dump)
	if err != nil {
		return 0, false, err
	}
	return m.place(pool, active, route, writerRank, numCompute, dump)
}

func TestEffectiveRouteRehash(t *testing.T) {
	plan := faults.Plan{Crashes: []faults.Crash{{Endpoint: 9, AtDump: 2}}}
	inj, err := faults.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	const (
		numCompute = 8
		numStaging = 3
		base       = 8 // staging idx 1 lives at endpoint 9
	)
	for w := 0; w < numCompute; w++ {
		// Before the crash every writer keeps its primary.
		idx, rerouted, err := effectiveRoute(DefaultRoute, inj, w, numCompute, numStaging, base, 1)
		if err != nil || rerouted || idx != DefaultRoute(w, numCompute, numStaging) {
			t.Errorf("pre-crash writer %d: idx=%d rerouted=%v err=%v", w, idx, rerouted, err)
		}
		// After the crash nobody routes to the dead index, and writers whose
		// primary died land on a survivor.
		idx, rerouted, err = effectiveRoute(DefaultRoute, inj, w, numCompute, numStaging, base, 2)
		if err != nil {
			t.Fatal(err)
		}
		if idx == 1 {
			t.Errorf("writer %d routed to crashed staging index", w)
		}
		if primary := DefaultRoute(w, numCompute, numStaging); (primary == 1) != rerouted {
			t.Errorf("writer %d primary=%d rerouted=%v", w, primary, rerouted)
		}
	}
	if live := liveStagingAt(inj, base, numStaging, 2); !reflect.DeepEqual(live, []int{0, 2}) {
		t.Errorf("live staging %v", live)
	}
	// All dead: a routing error, not a panic.
	all, _ := faults.NewInjector(faults.Plan{Crashes: []faults.Crash{
		{Endpoint: 8, AtDump: 0}, {Endpoint: 9, AtDump: 0}, {Endpoint: 10, AtDump: 0},
	}})
	if _, _, err := effectiveRoute(DefaultRoute, all, 0, numCompute, numStaging, base, 0); err == nil {
		t.Error("routing with zero live staging ranks succeeded")
	}
}

// chaoticCompute writes deterministic per-rank data for dumps timesteps,
// so two runs (fault-free and faulty) produce byte-identical chunks.
func chaoticCompute(dumps, perRank int) ComputeFunc {
	return func(comm *mpi.Comm, client *Client) error {
		rng := rand.New(rand.NewSource(int64(comm.Rank()) + 1))
		for step := 0; step < dumps; step++ {
			vals := make([]float64, perRank)
			for i := range vals {
				vals[i] = rng.Float64()*10 - 5
			}
			if _, err := client.Write(testSchema, ffs.Record{"values": vals}, int64(step)); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestTransientFaultRecoveryMatchesFaultFree: a run under a pure-transient
// plan must produce staging results identical to the fault-free run —
// every injected failure is absorbed by retries — while the fault report
// shows the faults actually fired.
func TestTransientFaultRecoveryMatchesFaultFree(t *testing.T) {
	const (
		numCompute = 8
		numStaging = 2
		dumps      = 3
		perRank    = 50
	)
	run := func(plan *faults.Plan) *PipelineResult {
		t.Helper()
		res, err := RunPipeline(PipelineConfig{
			NumCompute:       numCompute,
			NumStaging:       numStaging,
			Dumps:            dumps,
			PartialCalculate: localMinMax,
			Aggregate:        globalMinMax,
			FaultPlan:        plan,
		}, chaoticCompute(dumps, perRank),
			func(dump int) []staging.Operator {
				return []staging.Operator{&minmaxHist{bins: 16}}
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil)
	plan, err := faults.ParsePlan("transient:*:0.2", 7)
	if err != nil {
		t.Fatal(err)
	}
	faulty := run(&plan)

	if faulty.Fault == nil {
		t.Fatal("no fault report from a fault-injected run")
	}
	if faulty.Fault.InjectedTransients == 0 {
		t.Error("p=0.2 plan injected no transients")
	}
	if faulty.Fault.Retries == 0 {
		t.Error("transient faults were injected but nothing retried")
	}
	if faulty.Fault.Drops != 0 || faulty.Fault.DegradedDumps != 0 {
		t.Errorf("transient-only plan lost data: %+v", faulty.Fault)
	}
	for rank := 0; rank < numStaging; rank++ {
		for dump := 0; dump < dumps; dump++ {
			want := clean.StagingResults[rank][dump]
			got := faulty.StagingResults[rank][dump]
			if got.Degraded {
				t.Errorf("rank %d dump %d degraded under transient-only faults", rank, dump)
			}
			if !reflect.DeepEqual(got.PerOperator, want.PerOperator) {
				t.Errorf("rank %d dump %d results diverged:\nfaulty %v\nclean  %v",
					rank, dump, got.PerOperator, want.PerOperator)
			}
		}
	}
}

// TestStagingCrashRecovery: one staging rank crashes at a dump boundary.
// The crashed rank keeps the dumps it already served; survivors absorb
// its writers, every remaining dump completes with full data (zero loss),
// and those dumps are marked Degraded rather than failing.
func TestStagingCrashRecovery(t *testing.T) {
	const (
		numCompute = 8
		numStaging = 3
		dumps      = 4
		crashIdx   = 1
		crashDump  = 2
		perRank    = 20
	)
	plan, err := faults.ParsePlan(
		fmt.Sprintf("crash:%d@%d", numCompute+crashIdx, crashDump), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPipeline(PipelineConfig{
		NumCompute: numCompute,
		NumStaging: numStaging,
		Dumps:      dumps,
		FaultPlan:  &plan,
		Timeout:    60 * time.Second,
	}, chaoticCompute(dumps, perRank),
		func(dump int) []staging.Operator { return []staging.Operator{&countOp{}} })
	if err != nil {
		t.Fatal(err)
	}

	// The crashed rank served exactly the pre-crash dumps.
	if got := len(res.StagingResults[crashIdx]); got != crashDump {
		t.Fatalf("crashed rank served %d dumps, want %d", got, crashDump)
	}
	for dump := 0; dump < dumps; dump++ {
		var total int64
		degraded := false
		for rank := 0; rank < numStaging; rank++ {
			if dump >= len(res.StagingResults[rank]) {
				continue // crashed rank, post-crash dump
			}
			r := res.StagingResults[rank][dump]
			if n, ok := r.PerOperator["count"]["n"].(int64); ok {
				total += n
			}
			degraded = degraded || r.Degraded
		}
		// Zero data loss: every dump accounts for every writer's values.
		if total != numCompute*perRank {
			t.Errorf("dump %d counted %d values, want %d", dump, total, numCompute*perRank)
		}
		if dump < crashDump && degraded {
			t.Errorf("dump %d degraded before the crash", dump)
		}
		if dump >= crashDump && !degraded {
			t.Errorf("dump %d not marked degraded after the crash", dump)
		}
	}

	rep := res.Fault
	if rep == nil {
		t.Fatal("no fault report")
	}
	if !reflect.DeepEqual(rep.CrashedStaging, []int{crashIdx}) {
		t.Errorf("crashed staging %v, want [%d]", rep.CrashedStaging, crashIdx)
	}
	if rep.ReroutedDumps == 0 {
		t.Error("no client writes were rerouted around the crash")
	}
	if rep.Redistributed == 0 {
		t.Error("survivors report no redistributed requests")
	}
	if rep.Drops != 0 {
		t.Errorf("dump-aligned crash dropped %d chunks; recovery must be lossless", rep.Drops)
	}
	if rep.DegradedDumps == 0 {
		t.Error("no dumps marked degraded in the report")
	}
}

// TestCrashPlanValidation: crash rules must target staging endpoints and
// leave at least one staging rank alive.
func TestCrashPlanValidation(t *testing.T) {
	compute := faults.Plan{Crashes: []faults.Crash{{Endpoint: 0, AtDump: 0}}}
	if _, err := RunPipeline(PipelineConfig{
		NumCompute: 2, NumStaging: 1, Dumps: 1, FaultPlan: &compute,
	}, nil, nil); err == nil || !strings.Contains(err.Error(), "not a staging endpoint") {
		t.Errorf("compute-endpoint crash accepted: %v", err)
	}
	all := faults.Plan{Crashes: []faults.Crash{
		{Endpoint: 2, AtDump: 0}, {Endpoint: 3, AtDump: 1},
	}}
	if _, err := RunPipeline(PipelineConfig{
		NumCompute: 2, NumStaging: 2, Dumps: 2, FaultPlan: &all,
	}, nil, nil); err == nil || !strings.Contains(err.Error(), "crashes all") {
		t.Errorf("total staging wipeout accepted: %v", err)
	}
}

// TestPullDropCompletesDegraded: when a chunk's source endpoint dies
// between expose and pull, the dump completes without that chunk, marked
// Degraded with the drop counted — instead of failing the staging rank.
func TestPullDropCompletesDegraded(t *testing.T) {
	err := mpi.Run(1, func(world *mpi.Comm) error {
		fcfg := fabric.DefaultConfig(3)
		fcfg.VarSigma = 0
		fab, err := fabric.New(fcfg)
		if err != nil {
			return err
		}
		defer fab.Shutdown()
		write := func(rank int) error {
			ep, err := fab.Endpoint(rank)
			if err != nil {
				return err
			}
			client, err := NewClient(ClientConfig{
				WriterRank: rank, NumCompute: 2, NumStaging: 1,
				Endpoint: ep, StagingBase: 2,
			})
			if err != nil {
				return err
			}
			_, err = client.Write(testSchema, ffs.Record{"values": []float64{1, 2, 3}}, 0)
			return err
		}
		if err := write(0); err != nil {
			return err
		}
		if err := write(1); err != nil {
			return err
		}
		// Endpoint 1 dies after sending its fetch request but before the
		// staging rank pulls its chunk.
		if err := fab.FailEndpoint(1); err != nil {
			return err
		}
		sep, err := fab.Endpoint(2)
		if err != nil {
			return err
		}
		server, err := NewServer(ServerConfig{
			StagingIndex: 0, Comm: world, Endpoint: sep, NumCompute: 2,
		})
		if err != nil {
			return err
		}
		res, stats, err := server.ServeDump(0, []staging.Operator{&countOp{}})
		if err != nil {
			return fmt.Errorf("dump failed instead of degrading: %w", err)
		}
		if stats.Drops != 1 {
			return fmt.Errorf("drops %d, want 1", stats.Drops)
		}
		if !res.Degraded || !stats.Degraded {
			return fmt.Errorf("dump with a dropped chunk not marked degraded")
		}
		if n := res.PerOperator["count"]["n"].(int64); n != 3 {
			return fmt.Errorf("count %d, want 3 (the surviving chunk)", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestComputeBlockedOnFabricFailsFastCrashCascade: a compute rank wedged
// forever in a fabric receive cannot finish its dumps; the pipeline
// watchdog must shut the fabric down so the blocked rank fails with a
// deterministic error that cascades through the message-passing layer,
// instead of deadlocking the run.
func TestComputeBlockedOnFabricFailsFastCrashCascade(t *testing.T) {
	cfg := PipelineConfig{
		NumCompute: 2,
		NumStaging: 1,
		Dumps:      1,
		Timeout:    500 * time.Millisecond,
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunPipeline(cfg,
			func(comm *mpi.Comm, client *Client) error {
				if comm.Rank() == 1 {
					// Blocks forever: compute ranks never receive control
					// messages, so only the watchdog can unwedge this.
					_, _, err := client.Endpoint().RecvCtl()
					return fmt.Errorf("blocked rank unwedged: %w", err)
				}
				_, err := client.Write(testSchema, ffs.Record{"values": []float64{1}}, 0)
				return err
			},
			func(dump int) []staging.Operator { return []staging.Operator{&countOp{}} })
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pipeline succeeded with a wedged compute rank")
		}
		if !strings.Contains(err.Error(), "timed out") {
			t.Errorf("error does not mention the watchdog timeout: %v", err)
		}
		if !strings.Contains(err.Error(), fabric.ErrShutdown.Error()) {
			t.Errorf("blocked rank's error did not cascade from the fabric shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("watchdog did not fire; pipeline deadlocked")
	}
}

// TestDegradeWindowSlowsDump: a degraded-bandwidth window stretches the
// modeled pull time of the affected dump only.
func TestDegradeWindowSlowsDump(t *testing.T) {
	const dumps = 3
	run := func(plan *faults.Plan) *PipelineResult {
		t.Helper()
		res, err := RunPipeline(PipelineConfig{
			NumCompute: 2,
			NumStaging: 1,
			Dumps:      dumps,
			FaultPlan:  plan,
		}, chaoticCompute(dumps, 2000),
			func(dump int) []staging.Operator { return []staging.Operator{&countOp{}} })
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil)
	plan, err := faults.ParsePlan("degrade:*:1-1:16", 1)
	if err != nil {
		t.Fatal(err)
	}
	slow := run(&plan)
	cleanD := clean.StagingStats[0][1].PullModeled
	slowD := slow.StagingStats[0][1].PullModeled
	if slowD < 8*cleanD {
		t.Errorf("degraded dump modeled pull %v not ~16x clean %v", slowD, cleanD)
	}
	if other := slow.StagingStats[0][2].PullModeled; other > 4*clean.StagingStats[0][2].PullModeled {
		t.Errorf("dump outside the window slowed: %v vs clean %v",
			other, clean.StagingStats[0][2].PullModeled)
	}
}
