package predata

import (
	"context"
	"fmt"
	"sync"
	"time"

	"predata/internal/dataspaces"
	"predata/internal/elastic"
	"predata/internal/flowctl"
	"predata/internal/mpi"
	"predata/internal/trace"
)

// ElasticConfig layers telemetry-driven autoscaling on a pipeline: the
// world provisions NumStaging staging ranks, but only an elastic subset
// of them serves each dump. At every dump boundary each live staging
// rank feeds the pool-wide merged overload telemetry into an identical
// deterministic autoscaler, so all ranks reach the same grow/shrink/hold
// decision without a membership protocol — the same shared-derivation
// idiom the crash-recovery path uses with the fault plan.
type ElasticConfig struct {
	// Policy bounds and tunes the autoscaler. Min and Max bound the
	// active rank count; Max must not exceed the pipeline's NumStaging
	// (the provisioned reserve pool).
	Policy elastic.Policy
	// Start is the initial active count, clamped into [Min, Max]; zero
	// means Policy.Min.
	Start int
	// Space, when non-nil, is the shared DataSpaces instance whose
	// shards are handed over at every resize: the designated survivor
	// rehashes it onto the new active count inside the epoch boundary
	// (donors' blocks move to joiners on a grow, departing ranks' blocks
	// to survivors on a shrink), and the moved-cell volume lands in the
	// ScaleReport and the flight recorder (PhaseHandoff).
	Space *dataspaces.Space
}

// ScaleEpoch records one membership epoch of an elastic run: a stretch
// of dumps served by one fixed active set.
type ScaleEpoch struct {
	Epoch     int64
	FirstDump int64
	// Active is the epoch's active rank count; Direction the change
	// relative to the previous epoch (elastic.Grow, Shrink, or Hold —
	// crash-induced pool changes report the resulting direction too).
	Active    int
	Direction int
	// HandoffCells and HandoffWall account the DataSpaces shard movement
	// performed inside this epoch's boundary.
	HandoffCells int64
	HandoffWall  time.Duration
}

// ScaleReport summarizes the autoscaler's activity over one elastic run.
type ScaleReport struct {
	// Decision counters, mirroring elastic.Stats.
	Decisions     int64
	Grows         int64
	Shrinks       int64
	Holds         int64
	CooldownHolds int64
	// Epochs lists every membership epoch in order.
	Epochs []ScaleEpoch
	// RankDumps is the sum of active rank counts over all dumps — the
	// run's rank-hour proxy the bench compares against static
	// provisioning.
	RankDumps int64
	// MinActive/MaxActive bound the active count the run actually used;
	// FinalActive is the target after the last decision.
	MinActive   int
	MaxActive   int
	FinalActive int
}

// RunElastic executes computeFn on NumCompute ranks against an elastic
// staging pool: NumStaging ranks are provisioned, but each dump is
// served by the pool the autoscaler chose at the previous boundary —
// the first ranks of whatever the fault plan leaves serving. It is the
// shared staging driver plus the autoscaler as one more view source:
// grows widen the serving communicator onto reserve ranks, shrinks
// retire ranks by drain-then-Split (the departing rank finishes its
// dump — leases flushed, spill replayed — hands its shards to the
// survivors, and goes silent), and both compose with crash, partition,
// restart and crashall plans and with durable staging like any other
// view change (DESIGN.md §6). Every view is stamped into the flight
// recorder as a scale epoch that trace.Verify checks for cross-rank
// agreement, chunk conservation, and retired-rank silence.
func RunElastic(cfg PipelineConfig, ecfg ElasticConfig, computeFn ComputeFunc, opsFor OperatorFactory) (*PipelineResult, *ScaleReport, error) {
	pol := ecfg.Policy
	if err := pol.Validate(); err != nil {
		return nil, nil, err
	}
	if pol.Max > cfg.NumStaging {
		return nil, nil, fmt.Errorf("predata: elastic Max %d exceeds the provisioned staging pool %d",
			pol.Max, cfg.NumStaging)
	}
	if cfg.NumStaging > 62 {
		return nil, nil, fmt.Errorf("predata: staging pool %d exceeds 62, the scale-epoch bitmask width",
			cfg.NumStaging)
	}
	start := min(max(ecfg.Start, pol.Min), pol.Max) // zero Start means Min
	sc := &scaler{
		pol:      pol,
		start:    start,
		space:    ecfg.Space,
		sched:    elastic.NewSchedule(start),
		deadline: cfg.Retry.withDefaults().DumpDeadline,
	}
	res, err := runPipeline(cfg, sc, computeFn, opsFor)
	if err != nil {
		return nil, nil, err
	}
	return res, &sc.report, nil
}

// scaler is the autoscaler view source RunElastic layers on the shared
// staging driver. It owns the Schedule every party reads each dump's
// pool size from, the boundary telemetry exchange that feeds each
// staging rank's own Autoscaler replica, and the ScaleReport. Every
// replica sees the same merged telemetry, so all ranks reach the same
// decision without a membership protocol — the shared-derivation idiom
// the fault plan already uses. A nil *scaler is a fixed-size pool.
type scaler struct {
	pol      elastic.Policy
	start    int
	space    *dataspaces.Space
	sched    *elastic.Schedule
	deadline time.Duration

	mu     sync.Mutex
	report ScaleReport
}

// size returns dump's announced pool size. The wait is deadline-bounded
// so a dead pool cannot wedge a writer.
func (sc *scaler) size(dump int64) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), sc.deadline)
	defer cancel()
	return sc.sched.ActiveAt(ctx, dump)
}

// abort poisons the schedule so writers waiting on future announcements
// fail fast.
func (sc *scaler) abort(err error) {
	if sc != nil {
		sc.sched.Abort(err)
	}
}

// replica returns one staging rank's copy of the deterministic
// autoscaler (nil for a fixed-size pool).
func (sc *scaler) replica() (*elastic.Autoscaler, error) {
	if sc == nil {
		return nil, nil
	}
	return elastic.New(sc.pol, sc.start)
}

// recordEpoch files an installed view in the report; only the view's
// designated survivor (its lowest rank) records it.
func (sc *scaler) recordEpoch(idx int, dump, epoch int64, prev, next []int, moved int64, wall time.Duration) {
	if len(next) == 0 || idx != next[0] {
		return
	}
	dir := elastic.Hold
	switch {
	case prev == nil:
		// initial configuration, not a resize
	case len(next) > len(prev):
		dir = elastic.Grow
	case len(next) < len(prev):
		dir = elastic.Shrink
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.report.Epochs = append(sc.report.Epochs, ScaleEpoch{
		Epoch:        epoch,
		FirstDump:    dump,
		Active:       len(next),
		Direction:    dir,
		HandoffCells: moved,
		HandoffWall:  wall,
	})
}

// observe closes one dump boundary for the autoscaler: every live
// staging rank — parked and fenced ones included — exchanges its
// telemetry over the alive communicator, feeds the identical merged view
// into its own replica, and announces the same next-dump pool size.
// served is the rank's overload stats for the dump (nil when it sat
// out); lost counts the crash losses the boundary discovered, reported
// by the communicator's lowest rank only so the merge counts them once.
// The view's designated survivor folds the dump into the report. No-op
// for a fixed-size pool.
func (sc *scaler) observe(auto *elastic.Autoscaler, alive *mpi.Comm, tr *trace.Recorder, rank, idx int,
	dump int64, v View, served *flowctl.OverloadStats, lost int) error {
	if sc == nil {
		return nil
	}
	if alive.Rank() != 0 {
		lost = 0
	}
	rows, err := mpi.Allgather(alive, []elastic.Telemetry{elastic.FromOverload(dump, served, lost)})
	if err != nil {
		return fmt.Errorf("staging rank %d telemetry exchange at dump %d: %w", idx, dump, err)
	}
	flat := make([]elastic.Telemetry, 0, len(rows))
	for _, row := range rows {
		flat = append(flat, row...)
	}
	dec := auto.Observe(elastic.Merge(flat))
	tr.Instant(trace.PhaseScale, rank, dec.Direction, dump, v.Epoch, int64(dec.Target))
	if err := sc.sched.Announce(dump+1, dec.Target); err != nil {
		return fmt.Errorf("staging rank %d announcing dump %d: %w", idx, dump+1, err)
	}
	if len(v.Active) == 0 || idx != v.Active[0] {
		return nil
	}
	n := len(v.Active)
	st := auto.Stats()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	r := &sc.report
	r.RankDumps += int64(n)
	if r.MinActive == 0 || n < r.MinActive {
		r.MinActive = n
	}
	r.MaxActive = max(r.MaxActive, n)
	r.Decisions, r.Grows, r.Shrinks = st.Decisions, st.Grows, st.Shrinks
	r.Holds, r.CooldownHolds = st.Holds, st.CooldownHolds
	r.FinalActive = auto.Current()
	return nil
}
