package predata

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"predata/internal/fabric"
	"predata/internal/faults"
	"predata/internal/flowctl"
	"predata/internal/mpi"
	"predata/internal/staging"
	"predata/internal/trace"
	"predata/internal/wal"
)

// PipelineConfig describes a complete compute + staging job sharing one
// fabric, the configuration the paper's experiments run: N compute ranks
// producing dumps, M staging ranks consuming them.
type PipelineConfig struct {
	NumCompute int
	NumStaging int
	// Dumps is the number of I/O dumps each compute rank performs; the
	// staging area serves the same count. Timesteps are 0..Dumps-1.
	Dumps int
	// Fabric configures the interconnect; Endpoints is overridden to
	// NumCompute+NumStaging. Zero value selects DefaultConfig.
	Fabric fabric.Config
	// Engine configures the staging engine.
	Engine staging.Config
	// Route, Transform, PartialCalculate, Aggregate plug the usual hooks.
	Route            RouteFunc
	Transform        TransformFunc
	PartialCalculate PartialFunc
	Aggregate        AggregateFunc
	// PullConcurrency bounds in-flight pulls per staging rank.
	PullConcurrency int
	// ChunkOrder customizes each staging rank's chunk stream order.
	ChunkOrder func(a, b FetchRequest) bool
	// ChunkFilter drops chunks before they reach any operator.
	ChunkFilter func(*staging.Chunk) bool
	// Timeout aborts the pipeline if it has not completed in time by
	// shutting the fabric down; ranks blocked on fabric operations fail
	// fast and the abort cascades through the message-passing layer.
	// Zero disables the watchdog. (A rank blocked purely in application
	// code that never touches the fabric cannot be interrupted.)
	Timeout time.Duration
	// FaultPlan, when non-nil, injects the plan's faults into the run:
	// transients and degrade windows act inside the fabric, crashes kill
	// staging ranks at dump boundaries and the survivors absorb their
	// routes. Crashes may only target staging endpoints
	// [NumCompute, NumCompute+NumStaging) and must leave at least one
	// staging rank alive.
	FaultPlan *faults.Plan
	// Retry tunes transient-fault backoff and the per-dump staging
	// deadline; zero fields take DefaultRetryPolicy values.
	Retry RetryPolicy
	// BufferMB, when positive, enables the flow controller on every
	// staging rank with a budget of BufferMB megabytes — the ADIOS
	// <buffer size-MB> hint made binding. Zero disables admission control.
	BufferMB int
	// Overload tunes the degradation ladder (watermarks, patience, spill
	// directory and escalation limits). Its BudgetBytes field is ignored —
	// the budget always derives from BufferMB.
	Overload flowctl.Policy
	// WALDir, when non-empty, turns on durable staging: every staging
	// rank keeps a write-ahead journal under WALDir/rank-N, recording
	// fetch requests and pulled chunks on arrival and sealing each
	// completed dump with a commit record. A journal left behind by a
	// previous incarnation is recovered on start. Required for plans
	// with restart or crashall faults — bounced ranks rebuild from it.
	WALDir string
	// CheckpointEvery, when positive, writes a dump-boundary checkpoint
	// every CheckpointEvery dumps and truncates the journal down to the
	// records the checkpoint does not cover, bounding journal growth.
	// Ignored without WALDir.
	CheckpointEvery int
	// Tracer, when non-nil, flight-records the run: fabric operations,
	// staging engine stages, collectives, flow-control decisions and
	// recovery events all land in its ring buffers, ready for export or
	// trace.Verify. A nil Tracer costs nothing on any hot path.
	Tracer *trace.Recorder
}

// FaultReport aggregates fault-injection and recovery activity across
// one pipeline run. All counters are totals over all ranks and dumps.
type FaultReport struct {
	// InjectedTransients and DownRefusals come from the fabric-level
	// injector: faults fired and operations refused against dead peers.
	InjectedTransients int64
	DownRefusals       int64
	// Retries counts fabric operations retried (client sends, staging
	// receives and pulls).
	Retries int64
	// ReroutedDumps counts client writes rehashed onto a surviving
	// staging rank.
	ReroutedDumps int64
	// Redistributed counts requests served by a non-primary staging rank.
	Redistributed int64
	// Drops counts chunks lost to crashed endpoints.
	Drops int64
	// DegradedDumps counts per-rank dump results marked Degraded.
	DegradedDumps int64
	// Corruptions counts payload corruptions the injector fired (wire or
	// source-side). CorruptPulls counts deliveries whose CRC verification
	// failed on the staging side — each is transparently re-pulled — and
	// CorruptDrops counts chunks abandoned after the attempt budget
	// because the source copy itself is damaged.
	Corruptions  int64
	CorruptPulls int64
	CorruptDrops int64
	// Duplicates counts control messages the injector duplicated;
	// DupDrops counts the copies receivers suppressed by (src, seq).
	Duplicates int64
	DupDrops   int64
	// Unreachables counts operations refused because a partition severed
	// the link — distinct from DownRefusals: the peer is alive.
	Unreachables int64
	// FencedDumps counts per-rank dumps sat out without a staging
	// quorum; Heals counts fenced ranks rejoining once their partition
	// window closed.
	FencedDumps int64
	Heals       int64
	// HedgedPulls counts pulls that armed a second attempt after
	// exceeding the bandwidth-model deadline; HedgeWins counts races the
	// hedge attempt won.
	HedgedPulls int64
	HedgeWins   int64
	// CrashedStaging lists the staging indices the plan crashed.
	CrashedStaging []int
	// RecoveryWall is the total membership-reconfiguration time.
	RecoveryWall time.Duration
	// Restarts counts journal-backed rank revivals: each restart-window
	// rejoin and each rank's rebuild inside a crashall drill.
	Restarts int64
	// WalRecords/WalBytes total the records and framed bytes appended to
	// the write-ahead journals; JournalWall is the cumulative wall time
	// inside journal appends, syncs and checkpoints — the durability
	// overhead the restart experiment measures.
	WalRecords  int64
	WalBytes    int64
	JournalWall time.Duration
	// WalReplayed counts chunks decoded out of a journal instead of
	// pulled over the fabric; Checkpoints counts checkpoint+truncate
	// cycles across all ranks.
	WalReplayed int64
	Checkpoints int64
}

// OverloadReport aggregates the flow controllers' throttle/spill/shed
// decisions across one pipeline run — the overload analogue of
// FaultReport. Counters are totals over all staging ranks and dumps;
// PeakBytes and MaxLevel are maxima.
type OverloadReport struct {
	// BudgetBytes is each staging rank's accountant capacity.
	BudgetBytes int64
	// Throttles and ThrottleWait count admissions that waited for budget
	// credits and the wall time spent waiting.
	Throttles    int64
	ThrottleWait time.Duration
	// Spill trajectory: chunks/bytes through the disk overflow queue and
	// chunks replayed back before Reduce.
	SpilledChunks  int64
	SpilledBytes   int64
	ReplayedChunks int64
	// Shed trajectory: chunks sampled for vs. withheld from optional
	// operators.
	SampledChunks int64
	ShedChunks    int64
	// Pass trajectory: chunks/bytes that bypassed the operators raw.
	PassedChunks int64
	PassedBytes  int64
	// PeakBytes is the highest accounted memory on any staging rank.
	PeakBytes int64
	// MaxLevel is the highest ladder level any dump reached.
	MaxLevel int
	// Lease utilization: UtilizationPeak is the highest per-dump held
	// fraction of the budget observed on any rank; UtilizationMean is the
	// mean of the per-dump time-weighted means over every (rank, dump)
	// merged in. The elastic autoscaler's shrink signal reads these.
	UtilizationPeak float64
	UtilizationMean float64

	utilDumps int64 // dumps folded into the UtilizationMean running mean
}

// merge folds one dump's stats into the run totals.
func (r *OverloadReport) merge(o *flowctl.OverloadStats) {
	r.Throttles += o.Throttles
	r.ThrottleWait += o.ThrottleWait
	r.SpilledChunks += o.SpilledChunks
	r.SpilledBytes += o.SpilledBytes
	r.ReplayedChunks += o.ReplayedChunks
	r.SampledChunks += o.SampledChunks
	r.ShedChunks += o.ShedChunks
	r.PassedChunks += o.PassedChunks
	r.PassedBytes += o.PassedBytes
	if o.PeakBytes > r.PeakBytes {
		r.PeakBytes = o.PeakBytes
	}
	if o.MaxLevel > r.MaxLevel {
		r.MaxLevel = o.MaxLevel
	}
	if o.UtilizationPeak > r.UtilizationPeak {
		r.UtilizationPeak = o.UtilizationPeak
	}
	if o.BudgetBytes > 0 {
		r.utilDumps++
		r.UtilizationMean += (o.UtilizationMean - r.UtilizationMean) / float64(r.utilDumps)
	}
}

// ComputeFunc runs the application on one compute rank. comm spans only
// the compute ranks; client performs PreDatA writes.
type ComputeFunc func(comm *mpi.Comm, client *Client) error

// OperatorFactory returns a fresh operator list for one dump. It is called
// once per dump per staging rank, so operators may carry per-dump state.
type OperatorFactory func(dump int) []staging.Operator

// PipelineResult collects the outcome of a pipeline run.
type PipelineResult struct {
	// StagingResults[rank][dump] is each staging rank's per-dump result.
	StagingResults [][]*staging.Result
	// StagingStats[rank][dump] mirrors StagingResults with cost stats.
	StagingStats [][]*DumpStats
	// ClientVisible[rank] is each compute rank's accumulated visible I/O
	// time over all dumps.
	ClientVisible []float64
	// Fault reports injection and recovery activity. It is nil only when
	// there was nothing to report: no fault plan and no recovery action
	// (a plan-free run on a noisy paced fabric still reports its hedges).
	Fault *FaultReport
	// Overload reports flow-control activity; nil without a BufferMB
	// budget.
	Overload *OverloadReport
}

// RunPipeline executes computeFn on NumCompute ranks and the staging
// servers on NumStaging ranks, all within one message-passing world wired
// to one fabric: ranks [0, NumCompute) are compute, the rest staging.
func RunPipeline(cfg PipelineConfig, computeFn ComputeFunc, opsFor OperatorFactory) (*PipelineResult, error) {
	return runPipeline(cfg, nil, computeFn, opsFor)
}

// errCrashed reports that installView took this rank out of the job:
// the fault plan crashed it at the dump boundary.
var errCrashed = errors.New("predata: staging rank crashed out")

// runPipeline is the one staging driver behind RunPipeline and
// RunElastic. Every staging rank runs the same dump loop: at each dump
// boundary it derives the dump's View from one shared view source — the
// fault plan's live set, the quorum probe, restart parking and, when sc
// is non-nil, the autoscaler's announced pool size — and installView
// moves it onto the view whenever the view changed (DESIGN.md §6).
func runPipeline(cfg PipelineConfig, sc *scaler, computeFn ComputeFunc, opsFor OperatorFactory) (*PipelineResult, error) {
	if cfg.NumCompute < 1 || cfg.NumStaging < 1 {
		return nil, fmt.Errorf("predata: pipeline sizes compute=%d staging=%d must be >= 1",
			cfg.NumCompute, cfg.NumStaging)
	}
	if cfg.Dumps < 0 {
		return nil, fmt.Errorf("predata: negative dump count %d", cfg.Dumps)
	}
	total := cfg.NumCompute + cfg.NumStaging
	inj, err := newPlanInjector(cfg)
	if err != nil {
		return nil, err
	}
	fcfg := cfg.Fabric
	if fcfg.LinkBandwidth == 0 {
		fcfg = fabric.DefaultConfig(total)
	}
	fcfg.Endpoints = total
	fcfg.Faults = inj
	fcfg.Tracer = cfg.Tracer
	fab, err := fabric.New(fcfg)
	if err != nil {
		return nil, err
	}
	defer fab.Shutdown()
	var timedOut atomic.Bool
	if cfg.Timeout > 0 {
		watchdog := time.AfterFunc(cfg.Timeout, func() {
			timedOut.Store(true)
			fab.Shutdown()
		})
		defer watchdog.Stop()
	}
	var poolSize func(int64) (int, error)
	if sc != nil {
		poolSize = sc.size
	}
	views := newMembership(inj, cfg.NumCompute, cfg.NumStaging, poolSize)

	res := &PipelineResult{
		StagingResults: make([][]*staging.Result, cfg.NumStaging),
		StagingStats:   make([][]*DumpStats, cfg.NumStaging),
		ClientVisible:  make([]float64, cfg.NumCompute),
	}
	var (
		reportMu sync.Mutex
		report   FaultReport
	)

	err = mpi.Run(total, func(world *mpi.Comm) (rankErr error) {
		// A failed rank must not leave peers blocked: poison the elastic
		// schedule so writers waiting on future announcements fail fast,
		// and shut the fabric down so pending RecvCtl/Pull calls fail too
		// (the message-passing side aborts via mpi.Run's own error
		// handling).
		defer func() {
			if rankErr != nil {
				sc.abort(fmt.Errorf("predata: rank %d failed: %w", world.Rank(), rankErr))
				fab.Shutdown()
			}
		}()
		world.SetTracer(cfg.Tracer)
		isCompute := world.Rank() < cfg.NumCompute
		color := 0
		if !isCompute {
			color = 1
		}
		comm, err := world.Split(color, world.Rank())
		if err != nil {
			return err
		}
		ep, err := fab.Endpoint(world.Rank())
		if err != nil {
			return err
		}
		if isCompute {
			client, err := NewClient(ClientConfig{
				WriterRank:       comm.Rank(),
				NumCompute:       cfg.NumCompute,
				NumStaging:       cfg.NumStaging,
				Endpoint:         ep,
				StagingBase:      cfg.NumCompute,
				Route:            cfg.Route,
				Transform:        cfg.Transform,
				PartialCalculate: cfg.PartialCalculate,
				Faults:           inj,
				Membership:       poolSize,
				Retry:            cfg.Retry,
				Tracer:           cfg.Tracer,
			})
			if err != nil {
				return err
			}
			if err := computeFn(comm, client); err != nil {
				return fmt.Errorf("compute rank %d: %w", comm.Rank(), err)
			}
			res.ClientVisible[comm.Rank()] = client.VisibleTime.Seconds()
			reportMu.Lock()
			report.Retries += client.Retries
			report.ReroutedDumps += client.Rerouted
			reportMu.Unlock()
			//predata:vet-ignore collectivecheck compute ranks leave here by design; every later collective runs on staging-side communicators
			return nil
		}
		myIdx := comm.Rank() // staging identity; stable across every view change
		var flow *flowctl.Controller
		if cfg.BufferMB > 0 {
			pol := cfg.Overload
			pol.BudgetBytes = int64(cfg.BufferMB) << 20
			flow, err = flowctl.NewController(pol)
			if err != nil {
				return err
			}
			flow.SetTracer(cfg.Tracer, world.Rank())
		}
		auto, err := sc.replica()
		if err != nil {
			return err
		}
		results := make([]*staging.Result, 0, cfg.Dumps)
		stats := make([]*DumpStats, 0, cfg.Dumps)
		// tally is this rank's share of the run's fault report, folded in
		// at exit alongside its results — whichever way the rank leaves.
		var tally FaultReport
		// Durable staging: recover whatever a previous incarnation's
		// journal holds (recovery-on-start), then open for appending.
		// installView repeats the same sequence on every rebuild. The rank
		// owns whichever handle `journal` holds at exit, so the shutdown
		// closure is registered before any of them, on every path.
		var journal *wal.Log
		var walDir string
		var startState *wal.State
		closeJournal := func() error {
			if journal == nil {
				return nil
			}
			tally.WalRecords += journal.Records()
			tally.WalBytes += journal.Bytes()
			tally.JournalWall += journal.Wall()
			err := journal.Close()
			journal = nil
			return err
		}
		defer func() {
			_ = closeJournal()
			res.StagingResults[myIdx] = results
			res.StagingStats[myIdx] = stats
			reportMu.Lock()
			report.WalRecords += tally.WalRecords
			report.WalBytes += tally.WalBytes
			report.JournalWall += tally.JournalWall
			report.Restarts += tally.Restarts
			report.Heals += tally.Heals
			report.Checkpoints += tally.Checkpoints
			reportMu.Unlock()
		}()
		if cfg.WALDir != "" {
			walDir = filepath.Join(cfg.WALDir, fmt.Sprintf("rank-%d", world.Rank()))
			startState, err = wal.Recover(walDir)
			if err != nil {
				return err
			}
			journal, err = wal.Open(walDir)
			if err != nil {
				return err
			}
		}
		// mkServer builds a fresh runtime incarnation around a journal
		// handle — once at start, and again after every rebuild.
		mkServer := func(c *mpi.Comm, j *wal.Log) (*Server, error) {
			engine := staging.NewEngine(cfg.Engine)
			engine.SetTracer(cfg.Tracer, world.Rank())
			return NewServer(ServerConfig{
				StagingIndex:    myIdx,
				Comm:            c,
				Endpoint:        ep,
				NumCompute:      cfg.NumCompute,
				NumStaging:      cfg.NumStaging,
				StagingBase:     cfg.NumCompute,
				Route:           cfg.Route,
				Aggregate:       cfg.Aggregate,
				Engine:          engine,
				PullConcurrency: cfg.PullConcurrency,
				ChunkOrder:      cfg.ChunkOrder,
				ChunkFilter:     cfg.ChunkFilter,
				Faults:          inj,
				Membership:      poolSize,
				Retry:           cfg.Retry,
				Flow:            flow,
				Journal:         j,
				Tracer:          cfg.Tracer,
			})
		}
		server, err := mkServer(comm, journal)
		if err != nil {
			return err
		}
		if _, err := server.Recover(startState); err != nil {
			return err
		}

		// Membership state. alive spans every live staging rank (parked
		// and fenced ones included: they still answer splits); active is
		// the serving communicator the installed view's ranks share.
		alive, active := comm, comm
		live := views.all
		cur := View{Epoch: -1, Active: views.all}
		if sc != nil {
			cur.Active = nil // elastic runs install — and stamp — their initial view at dump 0
		}
		parked, fenced := false, false
		// Boundary telemetry inputs: the overload stats of the dump this
		// rank served (nil when it sat out), and the crash losses the
		// boundary discovered.
		var served *flowctl.OverloadStats
		lost := 0

		// installView moves this rank onto view next at dump — the single
		// path every membership change takes: the crash Split (color -1
		// for the ranks the plan killed, which leave with errCrashed), the
		// active Split, revive/park, the journal rebuild, Reconfigure, the
		// elastic shard handoff, and the epoch trace stamps. rebuild asks
		// for a journal rebuild on an unchanged view: the crashall drill.
		installView := func(dump int64, nowLive, next []int, rebuild bool) (err error) {
			recStart := time.Now()
			rsp := cfg.Tracer.Begin(trace.PhaseRecovery, world.Rank(), -1, dump, -1)
			defer func() {
				if err != nil {
					rsp.End(0)
				} else {
					rsp.End(int64(len(next)))
				}
			}()
			changed := !slices.Equal(nowLive, live) || !slices.Equal(next, cur.Active)
			if !slices.Equal(nowLive, live) {
				// Crashes shrink the alive communicator: the dying rank
				// splits out (color < 0 — MPI_UNDEFINED), drops off the
				// fabric, and exits with the dumps it served.
				color := 0
				if !slices.Contains(nowLive, myIdx) {
					color = -1
				}
				sub, err := alive.Split(color, myIdx)
				if err != nil {
					return fmt.Errorf("staging rank %d shrink at dump %d: %w", myIdx, dump, err)
				}
				if color < 0 {
					if err := fab.FailEndpoint(world.Rank()); err != nil {
						return err
					}
					cfg.Tracer.Instant(trace.PhaseCrashExit, world.Rank(), -1, dump, int64(len(results)), 0)
					return errCrashed
				}
				lost = len(live) - len(nowLive)
				alive = sub
			}
			serving := slices.Contains(next, myIdx)
			if changed {
				// The serving communicator is re-derived from the alive one
				// at every view change — split by activity unless every live
				// rank serves — so a rank sitting the view out stays
				// reachable for splits and rejoins the collective the
				// moment a later view includes it.
				active = alive
				if !slices.Equal(next, nowLive) {
					color := 0
					if !serving {
						color = 1
					}
					if active, err = alive.Split(color, myIdx); err != nil {
						return fmt.Errorf("staging rank %d active split at dump %d: %w", myIdx, dump, err)
					}
				}
			}
			prev := cur.Active
			cur = View{Epoch: cur.Epoch + 1, Active: next}
			live = nowLive
			down := inj.RestartDownAt(cfg.NumCompute+myIdx, dump)
			quorum := true
			if len(inj.Plan().Partitions) > 0 {
				// Dump-aligned probe: how many live peers this rank
				// reaches, and whether that is a strict majority.
				reach := stagingReachAt(inj, cfg.NumCompute, nowLive, myIdx, dump)
				quorum = 2*reach > len(nowLive)
				verdict := int64(0)
				if quorum {
					verdict = 1
				}
				cfg.Tracer.Instant(trace.PhaseProbe, world.Rank(), -1, dump, int64(reach), verdict)
			}
			var drain trace.Span
			if slices.Contains(prev, myIdx) && !serving {
				// Leaving the serving set: the rank flushed its leases and
				// replayed its spill inside its last ServeDump; what remains
				// is handing its writers and shards to the survivors.
				drain = cfg.Tracer.Begin(trace.PhaseDrain, world.Rank(), -1, dump, cur.Epoch)
			}
			// End on the zero Span (not leaving) is a no-op.
			defer drain.End(int64(len(next)))
			if parked && !down {
				// Revival: rejoin the fabric and rebuild from the journal
				// the bounced incarnation sealed at shutdown.
				if err := fab.ReviveEndpoint(world.Rank()); err != nil {
					return err
				}
				parked, rebuild = false, true
			}
			if rebuild && !parked {
				// A fresh incarnation: every in-memory structure is gone,
				// only the journal survives. Recover it and rebuild the
				// runtime around the replayed state.
				if err := closeJournal(); err != nil {
					return fmt.Errorf("staging rank %d rebuild at dump %d: %w", myIdx, dump, err)
				}
				st, err := wal.Recover(walDir)
				if err != nil {
					return err
				}
				if journal, err = wal.Open(walDir); err != nil {
					return err
				}
				if server, err = mkServer(active, journal); err != nil {
					return err
				}
				replayed, err := server.Recover(st)
				if err != nil {
					return err
				}
				tally.Restarts++
				cfg.Tracer.Instant(trace.PhaseRestart, world.Rank(), -1, dump, cur.Epoch, int64(replayed))
			}
			switch {
			case serving:
				if fenced {
					// Heal: the epoch advanced past the fence window, and
					// every in-window request census excluded this rank, so
					// nothing it serves from here on can double-process a
					// chunk.
					cfg.Tracer.Instant(trace.PhaseHeal, world.Rank(), -1, dump, cur.Epoch, 0)
					tally.Heals++
				}
				if err := server.Reconfigure(active, cur.Epoch, time.Since(recStart)); err != nil {
					return fmt.Errorf("staging rank %d reconfigure at dump %d: %w", myIdx, dump, err)
				}
			case down && !parked:
				// Controlled bounce at the dump boundary: drain in-flight
				// requests into the journal (buffered pending ones are
				// already there), seal it, and drop off the fabric for the
				// window.
				for _, m := range ep.DrainCtl() {
					if req, ok := m.Data.(FetchRequest); ok {
						if err := server.journalRequest(req); err != nil {
							return err
						}
					}
				}
				if err := closeJournal(); err != nil {
					return err
				}
				if err := fab.FailEndpoint(world.Rank()); err != nil {
					return err
				}
				parked = true
			}
			// Fenced: alive and not bouncing, but cut off from the staging
			// quorum. (An elastic reserve rank outside the pool is neither.)
			fenced = !serving && !down && !quorum
			if sc != nil {
				var moved int64
				var wall time.Duration
				if sc.space != nil && len(next) > 0 && myIdx == next[0] {
					// The designated survivor hands the shared space's
					// shards over to the new active count.
					hs := time.Now()
					rs, err := sc.space.Resize(len(next))
					if err != nil {
						return fmt.Errorf("staging rank %d shard handoff at dump %d: %w", myIdx, dump, err)
					}
					moved, wall = rs.MovedCells, time.Since(hs)
					cfg.Tracer.Instant(trace.PhaseHandoff, world.Rank(), -1, dump, cur.Epoch, moved)
				}
				sc.recordEpoch(myIdx, dump, cur.Epoch, prev, next, moved, wall)
				// Every live rank stamps the epoch it enters: first dump,
				// active count, and the active-index bitmask trace.Verify
				// checks for cross-rank agreement and retired-rank silence.
				var mask int64
				for _, i := range next {
					mask |= 1 << i
				}
				cfg.Tracer.Instant(trace.PhaseScaleEpoch, world.Rank(), len(next), dump, cur.Epoch, mask)
			}
			return nil
		}

		// boundary closes dump: a journal checkpoint on its cadence, then
		// on elastic runs the autoscaler's telemetry exchange.
		boundary := func(dump int64) error {
			if journal != nil && cfg.CheckpointEvery > 0 && (dump+1)%int64(cfg.CheckpointEvery) == 0 {
				// Everything below dump+1 this rank will ever reduce is
				// reduced and committed, so the journal compacts down to the
				// records the checkpoint does not cover.
				kept, err := journal.WriteCheckpoint(wal.Checkpoint{Epoch: cur.Epoch, NextDump: dump + 1})
				if err != nil {
					return fmt.Errorf("staging rank %d checkpoint at dump %d: %w", myIdx, dump, err)
				}
				cfg.Tracer.Instant(trace.PhaseCheckpoint, world.Rank(), -1, dump, dump+1, 0)
				cfg.Tracer.Instant(trace.PhaseWalTruncate, world.Rank(), -1, dump, dump+1, int64(kept))
				tally.Checkpoints++
			}
			err := sc.observe(auto, alive, cfg.Tracer, world.Rank(), myIdx, dump, cur, served, lost)
			served, lost = nil, 0
			return err
		}

		for dump := int64(0); dump < int64(cfg.Dumps); dump++ {
			if dump > 0 {
				if err := boundary(dump - 1); err != nil {
					return err
				}
			}
			nowLive := liveStagingAt(inj, cfg.NumCompute, cfg.NumStaging, dump)
			_, next, err := views.view(dump)
			if err != nil {
				return err
			}
			if !slices.Equal(nowLive, live) || !slices.Equal(next, cur.Active) {
				if err := installView(dump, nowLive, next, false); errors.Is(err, errCrashed) {
					//predata:vet-ignore collectivecheck dump-aligned crash: this rank split out with color<0, so survivors' collectives use communicators that exclude it
					return nil
				} else if err != nil {
					return err
				}
			}
			serving := slices.Contains(cur.Active, myIdx)
			crashAll := cfg.WALDir != "" && inj.CrashAllAt(dump)
			var ingest *DumpStats
			if crashAll {
				// Whole-service crash drill, in three acts. Act 1: the
				// crash-vulnerable half — serving ranks gather and pull the
				// dump, journaling everything, with no collective or engine
				// work (the state a process holds when the crash lands).
				if serving {
					if ingest, err = server.IngestDump(dump); err != nil {
						return fmt.Errorf("staging rank %d crashall ingest at dump %d: %w", myIdx, dump, err)
					}
				}
				// Act 2: the crash itself. Every live rank rebuilds from its
				// journal under a fresh epoch (membership is unchanged —
				// everyone died and everyone came back).
				if err := installView(dump, live, cur.Active, true); err != nil {
					return err
				}
			}
			if !serving {
				// Sat out. A bounced (parked) or fenced rank keeps dump
				// indices aligned across ranks with a placeholder marked
				// Degraded — it reduced nothing for the dump, its writers
				// rerouted; an elastic reserve rank records nothing.
				if parked || fenced {
					results = append(results, &staging.Result{PerOperator: map[string]map[string]any{}, Degraded: true})
					stats = append(stats, &DumpStats{Down: parked, Fenced: fenced, Degraded: true})
				}
				continue
			}
			var r *staging.Result
			var st *DumpStats
			if crashAll {
				// Act 3: finish the dump out of the journal — partials from
				// the recovered requests, chunks from the recovered records,
				// no fabric pull.
				r, st, err = server.ReplayDump(dump, opsFor(int(dump)))
			} else {
				r, st, err = server.ServeDump(dump, opsFor(int(dump)))
			}
			if err != nil {
				return fmt.Errorf("staging rank %d dump %d: %w", myIdx, dump, err)
			}
			st.absorbIngest(ingest, r)
			results = append(results, r)
			stats = append(stats, st)
			served = st.Overload
		}
		if cfg.Dumps == 0 {
			return nil
		}
		return boundary(int64(cfg.Dumps) - 1)
	})
	if err != nil {
		if timedOut.Load() {
			err = errors.Join(fmt.Errorf("predata: pipeline timed out after %v", cfg.Timeout), err)
		}
		return nil, errors.Join(errors.New("predata: pipeline failed"), err)
	}
	finishReports(&cfg, inj, &report, res)
	return res, nil
}

// newPlanInjector builds the fault injector from the pipeline's plan,
// validating that crashes target only staging endpoints and leave at
// least one staging rank alive. A nil plan yields a nil injector.
func newPlanInjector(cfg PipelineConfig) (*faults.Injector, error) {
	if cfg.FaultPlan == nil {
		return nil, nil
	}
	total := cfg.NumCompute + cfg.NumStaging
	inj, err := faults.NewInjector(*cfg.FaultPlan)
	if err != nil {
		return nil, err
	}
	crashed := map[int]bool{}
	for _, c := range cfg.FaultPlan.Crashes {
		if c.Endpoint < cfg.NumCompute || c.Endpoint >= total {
			return nil, fmt.Errorf(
				"predata: crash endpoint %d is not a staging endpoint [%d,%d)",
				c.Endpoint, cfg.NumCompute, total)
		}
		crashed[c.Endpoint] = true
	}
	if len(crashed) >= cfg.NumStaging {
		return nil, fmt.Errorf("predata: plan crashes all %d staging ranks", cfg.NumStaging)
	}
	for _, pt := range cfg.FaultPlan.Partitions {
		for _, g := range [][]int{pt.GroupA, pt.GroupB} {
			for _, ep := range g {
				if ep >= total {
					return nil, fmt.Errorf(
						"predata: partition endpoint %d is outside the job's %d endpoints", ep, total)
				}
			}
		}
	}
	if (len(cfg.FaultPlan.Restarts) > 0 || len(cfg.FaultPlan.CrashAlls) > 0) && cfg.WALDir == "" {
		return nil, fmt.Errorf(
			"predata: plan has restart/crashall faults but no WALDir — bounced ranks need a journal to rebuild from")
	}
	for _, r := range cfg.FaultPlan.Restarts {
		if r.Endpoint < cfg.NumCompute || r.Endpoint >= total {
			return nil, fmt.Errorf(
				"predata: restart endpoint %d is not a staging endpoint [%d,%d)",
				r.Endpoint, cfg.NumCompute, total)
		}
		// Every window dump must keep at least one rank serving, or the
		// writers routed around the bounce have nowhere to go.
		for d := r.AtDump; d < r.AtDump+r.Downtime; d++ {
			if len(activeStagingAt(inj, cfg.NumCompute, cfg.NumStaging, int64(d))) == 0 {
				return nil, fmt.Errorf(
					"predata: plan leaves no active staging rank at dump %d (every rank crashed, fenced, or restarting)", d)
			}
		}
	}
	return inj, nil
}

// finishReports folds injector and flow-control activity accumulated in
// the per-rank dump stats into the result's summary reports.
func finishReports(cfg *PipelineConfig, inj *faults.Injector, report *FaultReport, res *PipelineResult) {
	if inj != nil {
		ist := inj.Stats()
		report.InjectedTransients = ist.Transients.Value()
		report.DownRefusals = ist.DownRefusals.Value()
		report.Corruptions = ist.Corruptions.Value()
		report.Duplicates = ist.Duplicates.Value()
		report.DupDrops = ist.DupDrops.Value()
		report.Unreachables = ist.Unreachables.Value()
		seen := map[int]bool{}
		for _, c := range cfg.FaultPlan.Crashes {
			if !seen[c.Endpoint] {
				seen[c.Endpoint] = true
				report.CrashedStaging = append(report.CrashedStaging, c.Endpoint-cfg.NumCompute)
			}
		}
		sort.Ints(report.CrashedStaging)
	}
	for _, rankStats := range res.StagingStats {
		for _, st := range rankStats {
			report.Retries += int64(st.Retries)
			report.Redistributed += int64(st.Redistributed)
			report.Drops += int64(st.Drops)
			report.CorruptPulls += int64(st.CorruptPulls)
			report.CorruptDrops += int64(st.CorruptDrops)
			report.HedgedPulls += int64(st.HedgedPulls)
			report.HedgeWins += int64(st.HedgeWins)
			if st.Fenced {
				report.FencedDumps++
			}
			if st.Degraded {
				report.DegradedDumps++
			}
			report.WalReplayed += int64(st.WalReplayed)
			report.RecoveryWall += st.RecoveryWall
		}
	}
	// The report surfaces whenever there is anything to report: always
	// under an injector, but also on plan-free runs where the recovery
	// layer still acted — e.g. hedged pulls against a noisy paced fabric,
	// which are straggler protection, not a response to injected faults.
	if inj != nil || report.Retries != 0 || report.HedgedPulls != 0 ||
		report.Drops != 0 || report.Redistributed != 0 || report.DegradedDumps != 0 ||
		report.WalRecords != 0 {
		res.Fault = report
	}
	if cfg.BufferMB > 0 {
		ov := &OverloadReport{BudgetBytes: int64(cfg.BufferMB) << 20}
		for _, rankStats := range res.StagingStats {
			for _, st := range rankStats {
				if st.Overload != nil {
					ov.merge(st.Overload)
				}
			}
		}
		res.Overload = ov
	}
}
