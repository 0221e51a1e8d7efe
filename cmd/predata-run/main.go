// Command predata-run executes a complete PreDatA pipeline — compute
// writers, asynchronous staging, and a chosen set of in-transit
// operators — at a configurable laptop scale, printing per-rank results
// and cost statistics.
//
// Usage:
//
//	predata-run -compute 16 -staging 4 -particles 50000 -dumps 2 -ops sort,hist,hist2d,index
//	predata-run -app pixie3d -compute 8 -staging 2 -local 16 -ops reorg
//	predata-run -app xray -compute 8 -staging 3 -dumps 10 -buffer-mb 1 -elastic 1:3 -scale-policy growk=1,cooldown=1
//	predata-run -compute 8 -staging 3 -dumps 6 -wal-dir /tmp/predata-wal -checkpoint-every 2 -fault-plan 'restart:9@1:2'
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"predata/internal/adios"
	"predata/internal/apps/xray"
	"predata/internal/bench"
	"predata/internal/bp"
	"predata/internal/elastic"
	"predata/internal/faults"
	"predata/internal/ffs"
	"predata/internal/flowctl"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/pfs"
	"predata/internal/predata"
	"predata/internal/staging"
	"predata/internal/trace"
)

func main() {
	var (
		mode      = flag.String("mode", "staging", "configuration: staging|incompute")
		adiosCfg  = flag.String("adios-config", "", "ADIOS XML config selecting the method per group (overrides -mode)")
		app       = flag.String("app", "gtc", "workload: gtc|pixie3d|xray")
		compute   = flag.Int("compute", 16, "compute ranks")
		stagingN  = flag.Int("staging", 4, "staging ranks")
		particles = flag.Int("particles", 50000, "particles per compute rank (gtc)")
		local     = flag.Int("local", 16, "local array edge (pixie3d)")
		frames    = flag.Int("frames", 64, "quiet-dump frames per compute rank (xray; bursts scale this 10-100x)")
		dumps     = flag.Int("dumps", 2, "I/O dumps")
		opsFlag   = flag.String("ops", "sort,hist", "operators: sort,hist,hist2d,index,reorg")
		workers   = flag.Int("workers", 2, "map workers per staging rank")
		faultPlan = flag.String("fault-plan", "",
			"fault plan, e.g. 'transient:*:0.1;crash:9@1;degrade:3:0-2:4;corrupt:*:0.1:pull;partition:10|8,9@1-2;dup:*:0.2' (staging mode only)")
		faultSeed   = flag.Int64("fault-seed", 1, "seed for the fault plan's probabilistic draws")
		hedgeFactor = flag.Float64("hedge-factor", 0,
			"straggler hedging: re-issue a pull once it exceeds this multiple of the bandwidth-model estimate (0 uses the default, negative disables; staging mode only)")
		bufferMB = flag.Int("buffer-mb", -1,
			"staging memory budget in MB (0 disables; -1 takes the ADIOS <buffer size-MB> when -adios-config is given, else 0)")
		spillDir = flag.String("spill-dir", "", "directory for overload spill segments (default: system temp)")
		walDir   = flag.String("wal-dir", "",
			"durable staging: keep per-rank write-ahead journals under this directory and recover from them on start (required for restart/crashall fault plans; staging mode only)")
		checkpointEvery = flag.Int("checkpoint-every", 0,
			"write a dump-boundary checkpoint and truncate the journals every N dumps (0 disables; requires -wal-dir)")
		tracePath = flag.String("trace", "",
			"flight-record the run and write the trace here (.json: Chrome trace_event; otherwise PDTRACE2 binary; staging mode only)")
		elasticSpec = flag.String("elastic", "",
			"autoscale the active staging pool within \"min:max\" of the provisioned -staging ranks (staging mode only)")
		scalePolicy = flag.String("scale-policy", "",
			"autoscaler tuning as comma-separated k=v pairs: growk, shrinkj, lowutil, cooldown, maxstep, window (requires -elastic)")
	)
	flag.Parse()

	if *adiosCfg != "" {
		m, cfgBufMB, err := modeFromConfig(*adiosCfg, *app)
		if err != nil {
			fmt.Fprintln(os.Stderr, "predata-run:", err)
			os.Exit(1)
		}
		*mode = m
		// The XML buffer hint is the budget unless -buffer-mb overrides it.
		if *bufferMB < 0 {
			*bufferMB = cfgBufMB
		}
	}
	if *bufferMB < 0 {
		*bufferMB = 0
	}
	if *mode == "incompute" {
		if *faultPlan != "" {
			fmt.Fprintln(os.Stderr, "predata-run: -fault-plan requires -mode staging")
			os.Exit(2)
		}
		if *tracePath != "" {
			fmt.Fprintln(os.Stderr, "predata-run: -trace requires -mode staging")
			os.Exit(2)
		}
		if *elasticSpec != "" {
			fmt.Fprintln(os.Stderr, "predata-run: -elastic requires -mode staging")
			os.Exit(2)
		}
		if *hedgeFactor != 0 {
			fmt.Fprintln(os.Stderr, "predata-run: -hedge-factor requires -mode staging")
			os.Exit(2)
		}
		if *walDir != "" || *checkpointEvery != 0 {
			fmt.Fprintln(os.Stderr, "predata-run: -wal-dir and -checkpoint-every require -mode staging")
			os.Exit(2)
		}
		if *app == "xray" {
			fmt.Fprintln(os.Stderr, "predata-run: the xray workload requires -mode staging")
			os.Exit(2)
		}
		if err := runInCompute(*app, *compute, *particles, *local, *dumps); err != nil {
			fmt.Fprintln(os.Stderr, "predata-run:", err)
			os.Exit(1)
		}
		return
	}
	if *mode != "staging" {
		fmt.Fprintln(os.Stderr, "predata-run: unknown -mode", *mode)
		os.Exit(2)
	}
	if err := run(*app, *compute, *stagingN, *particles, *local, *frames, *dumps, *workers, *opsFlag, *faultPlan, *faultSeed, *hedgeFactor, *bufferMB, *spillDir, *walDir, *checkpointEvery, *tracePath, *elasticSpec, *scalePolicy); err != nil {
		fmt.Fprintln(os.Stderr, "predata-run:", err)
		os.Exit(1)
	}
}

func run(app string, compute, stagingN, particles, local, frames, dumps, workers int, opsFlag, faultPlan string, faultSeed int64, hedgeFactor float64, bufferMB int, spillDir, walDir string, checkpointEvery int, tracePath, elasticSpec, scalePolicy string) error {
	opNames := strings.Split(opsFlag, ",")
	factory, err := operatorFactory(app, opNames)
	if err != nil {
		return err
	}
	if spillDir != "" {
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return fmt.Errorf("spill dir: %w", err)
		}
	}
	if checkpointEvery != 0 && walDir == "" {
		return fmt.Errorf("-checkpoint-every requires -wal-dir")
	}
	if walDir != "" {
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return fmt.Errorf("wal dir: %w", err)
		}
	}
	cfg := predata.PipelineConfig{
		NumCompute:      compute,
		NumStaging:      stagingN,
		Dumps:           dumps,
		Engine:          staging.Config{Workers: workers},
		PullConcurrency: 2,
		BufferMB:        bufferMB,
		Overload:        flowctl.Policy{SpillDir: spillDir},
		WALDir:          walDir,
		CheckpointEvery: checkpointEvery,
		Retry:           predata.RetryPolicy{HedgeFactor: hedgeFactor},
	}
	if faultPlan != "" {
		plan, err := faults.ParsePlan(faultPlan, faultSeed)
		if err != nil {
			return err
		}
		cfg.FaultPlan = &plan
	}
	var recorder *trace.Recorder
	if tracePath != "" {
		recorder = trace.New(trace.Config{
			NumCompute: compute,
			NumStaging: stagingN,
			Dumps:      dumps,
		})
		cfg.Tracer = recorder
	}
	// The min/max partial pass operates on 2D particle arrays; the
	// Pixie3D workload ships 3D field chunks instead.
	if cols := partialCols(app); cols != nil {
		cfg.PartialCalculate = ops.MinMaxPartial(varFor(app), cols)
		cfg.Aggregate = ops.MinMaxAggregate()
	}
	start := time.Now()
	var (
		res   *predata.PipelineResult
		scale *predata.ScaleReport
	)
	if elasticSpec != "" {
		pol, err := parseScalePolicy(elasticSpec, scalePolicy)
		if err != nil {
			return err
		}
		res, scale, err = predata.RunElastic(cfg, predata.ElasticConfig{Policy: pol},
			computeFn(app, particles, local, frames, dumps, faultSeed), factory)
		if err != nil {
			return err
		}
	} else {
		if scalePolicy != "" {
			return fmt.Errorf("-scale-policy requires -elastic")
		}
		res, err = predata.RunPipeline(cfg, computeFn(app, particles, local, frames, dumps, faultSeed), factory)
		if err != nil {
			return err
		}
	}
	wall := time.Since(start)

	fmt.Printf("pipeline: %d compute + %d staging ranks, %d dumps, wall %v\n",
		compute, stagingN, dumps, wall.Round(time.Millisecond))
	if scale != nil {
		fmt.Printf("elastic: %d decisions (%d grows, %d shrinks, %d holds, %d in cooldown), active %d..%d ranks, final %d, %d rank-dumps\n",
			scale.Decisions, scale.Grows, scale.Shrinks, scale.Holds, scale.CooldownHolds,
			scale.MinActive, scale.MaxActive, scale.FinalActive, scale.RankDumps)
		for _, ep := range scale.Epochs {
			fmt.Printf("elastic: epoch %d from dump %d: %d active (%s), handoff %d cells in %v\n",
				ep.Epoch, ep.FirstDump, ep.Active, scaleDirName(ep.Direction),
				ep.HandoffCells, ep.HandoffWall.Round(time.Microsecond))
		}
	}
	if recorder != nil {
		if err := exportTrace(recorder, tracePath); err != nil {
			return err
		}
	}
	if rep := res.Fault; rep != nil {
		fmt.Printf("faults: %d transients injected, %d retries, %d rerouted writes, %d redistributed requests, %d drops, %d degraded dumps",
			rep.InjectedTransients, rep.Retries, rep.ReroutedDumps, rep.Redistributed, rep.Drops, rep.DegradedDumps)
		if rep.Corruptions > 0 || rep.CorruptPulls > 0 {
			fmt.Printf(", %d corruptions (%d CRC-failed pulls, %d shed)",
				rep.Corruptions, rep.CorruptPulls, rep.CorruptDrops)
		}
		if rep.FencedDumps > 0 || rep.Heals > 0 {
			fmt.Printf(", %d unreachable ops, %d fenced dumps, %d heals",
				rep.Unreachables, rep.FencedDumps, rep.Heals)
		}
		if rep.HedgedPulls > 0 {
			fmt.Printf(", %d hedged pulls (%d hedge wins)", rep.HedgedPulls, rep.HedgeWins)
		}
		if rep.Duplicates > 0 {
			fmt.Printf(", %d duplicated ctl messages (%d absorbed)", rep.Duplicates, rep.DupDrops)
		}
		if rep.WalRecords > 0 || rep.Restarts > 0 {
			fmt.Printf(", %d WAL records (%.1f MB, %v journaling), %d checkpoints, %d restarts (%d chunks replayed)",
				rep.WalRecords, float64(rep.WalBytes)/1e6, rep.JournalWall.Round(time.Microsecond),
				rep.Checkpoints, rep.Restarts, rep.WalReplayed)
		}
		if len(rep.CrashedStaging) > 0 {
			fmt.Printf(", crashed staging %v, recovery %v",
				rep.CrashedStaging, rep.RecoveryWall.Round(time.Microsecond))
		}
		fmt.Println()
	}
	if ov := res.Overload; ov != nil {
		fmt.Printf("overload: budget %.0f MB/rank, %d throttles (%v waiting), %d chunks spilled (%.1f MB, %d replayed), %d shed, %d passed raw, peak %.1f MB, max level %s\n",
			float64(ov.BudgetBytes)/(1<<20), ov.Throttles, ov.ThrottleWait.Round(time.Millisecond),
			ov.SpilledChunks, float64(ov.SpilledBytes)/(1<<20), ov.ReplayedChunks,
			ov.ShedChunks, ov.PassedChunks, float64(ov.PeakBytes)/(1<<20), flowctl.LevelName(ov.MaxLevel))
	}
	for rank, perDump := range res.StagingStats {
		for dump, st := range perDump {
			fmt.Printf("staging rank %d dump %d: %d requests, %.1f MB pulled, modeled pull %v, process wall %v\n",
				rank, dump, st.Requests, float64(st.BytesPulled)/1e6,
				st.PullModeled.Round(time.Millisecond), st.ProcessWall.Round(time.Millisecond))
		}
	}
	for rank, perDump := range res.StagingResults {
		for dump, r := range perDump {
			for opName, outs := range r.PerOperator {
				fmt.Printf("staging rank %d dump %d %s:", rank, dump, opName)
				for k, v := range outs {
					switch val := v.(type) {
					case int64, float64, string:
						fmt.Printf(" %s=%v", k, val)
					case map[int][]int64:
						fmt.Printf(" %s=%d-histograms", k, len(val))
					default:
						fmt.Printf(" %s=<%T>", k, v)
					}
				}
				fmt.Println()
			}
		}
	}
	return nil
}

// exportTrace snapshots the flight recorder, checks the recording against
// the runtime invariants, and writes it to path — Chrome trace_event JSON
// for a .json suffix, PDTRACE2 binary otherwise.
func exportTrace(recorder *trace.Recorder, path string) error {
	rec := recorder.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if strings.HasSuffix(path, ".json") {
		err = trace.WriteChrome(f, rec)
	} else {
		err = trace.WriteBinary(f, rec)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	rep, verr := trace.Verify(rec)
	if verr != nil {
		fmt.Printf("trace: %d events -> %s; verify FAILED:\n", len(rec.Events), path)
		for _, v := range rep.Violations {
			fmt.Printf("trace:   %s\n", v)
		}
		return fmt.Errorf("trace: verification failed with %d violations", len(rep.Violations))
	}
	fmt.Printf("trace: %d events -> %s (dropped %d); verified %d collective groups, %d shuffle edges, %d replay checks\n",
		len(rec.Events), path, rec.Dropped, rep.CollectiveGroups, rep.ShuffleEdges, rep.ReplayChecks)
	return nil
}

func varFor(app string) string {
	switch app {
	case "pixie3d":
		return "rho"
	case "xray":
		return "frames"
	}
	return "p"
}

func partialCols(app string) []int {
	switch app {
	case "pixie3d":
		return nil
	case "xray":
		return []int{xray.AttrEnergy, xray.AttrX, xray.AttrY}
	}
	return []int{bench.ColZeta, bench.ColRadial, bench.ColRank}
}

// parseScalePolicy builds the autoscaler policy from the -elastic
// "min:max" bounds and the optional -scale-policy k=v tuning pairs.
func parseScalePolicy(spec, tuning string) (elastic.Policy, error) {
	var pol elastic.Policy
	if n, err := fmt.Sscanf(spec, "%d:%d", &pol.Min, &pol.Max); n != 2 || err != nil {
		return pol, fmt.Errorf("bad -elastic %q (want min:max, e.g. 1:4)", spec)
	}
	if tuning != "" {
		for _, pair := range strings.Split(tuning, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				return pol, fmt.Errorf("bad -scale-policy entry %q (want k=v)", pair)
			}
			var err error
			switch strings.ToLower(k) {
			case "growk":
				_, err = fmt.Sscanf(v, "%d", &pol.GrowK)
			case "shrinkj":
				_, err = fmt.Sscanf(v, "%d", &pol.ShrinkJ)
			case "lowutil":
				_, err = fmt.Sscanf(v, "%g", &pol.LowUtil)
			case "cooldown":
				_, err = fmt.Sscanf(v, "%d", &pol.Cooldown)
			case "maxstep":
				_, err = fmt.Sscanf(v, "%d", &pol.MaxStep)
			case "window":
				_, err = fmt.Sscanf(v, "%d", &pol.Window)
			default:
				return pol, fmt.Errorf("unknown -scale-policy key %q (want growk|shrinkj|lowutil|cooldown|maxstep|window)", k)
			}
			if err != nil {
				return pol, fmt.Errorf("bad -scale-policy value %q for %s: %v", v, k, err)
			}
		}
	}
	return pol, pol.Validate()
}

func scaleDirName(dir int) string {
	switch {
	case dir > 0:
		return "grow"
	case dir < 0:
		return "shrink"
	}
	return "hold"
}

// computeFn builds the per-rank application driver.
func computeFn(app string, particles, local, frames, dumps int, seed int64) predata.ComputeFunc {
	if app == "xray" {
		return func(comm *mpi.Comm, client *predata.Client) error {
			det, err := xray.New(xray.Config{
				Rank:       comm.Rank(),
				NumRanks:   comm.Size(),
				BaseFrames: frames,
				Steps:      dumps,
				Seed:       seed,
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
	if app == "pixie3d" {
		return func(comm *mpi.Comm, client *predata.Client) error {
			n := uint64(local * local * local)
			global := []uint64{n * uint64(comm.Size())}
			schema := &ffs.Schema{Name: "pixie", Fields: []ffs.Field{{Name: "rho", Kind: ffs.KindArray}}}
			for step := 0; step < dumps; step++ {
				data := make([]float64, n)
				for i := range data {
					data[i] = float64(comm.Rank())*1000 + float64(i)
				}
				arr := &ffs.Array{
					Dims: []uint64{n}, Global: global,
					Offsets: []uint64{n * uint64(comm.Rank())}, Float64: data,
				}
				if _, err := client.Write(schema, ffs.Record{"rho": arr}, int64(step)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return func(comm *mpi.Comm, client *predata.Client) error {
		for step := 0; step < dumps; step++ {
			arr := bench.GenParticles(comm.Rank(), particles, int64(step))
			if _, err := client.Write(bench.ParticleSchema, ffs.Record{"p": arr}, int64(step)); err != nil {
				return err
			}
		}
		return nil
	}
}

// operatorFactory builds the per-dump operator list.
func operatorFactory(app string, names []string) (predata.OperatorFactory, error) {
	// Validate eagerly so flag typos fail before the pipeline launches.
	for _, n := range names {
		switch strings.TrimSpace(n) {
		case "sort", "hist", "hist2d", "index", "reorg", "":
		default:
			return nil, fmt.Errorf("unknown operator %q (want sort|hist|hist2d|index|reorg)", n)
		}
	}
	// Column choices per workload: the GTC particle attributes, or the
	// detector-frame attributes of the xray proxy.
	v := varFor(app)
	keyMajor, keyMinor := bench.ColRank, bench.ColID
	histCols := []int{bench.ColZeta, bench.ColRadial, bench.ColWeight}
	pairCols := [][2]int{{bench.ColZeta, bench.ColRadial}}
	indexCols := []int{bench.ColZeta, bench.ColRadial}
	if app == "xray" {
		keyMajor, keyMinor = xray.AttrEnergy, xray.AttrFrameID
		histCols = []int{xray.AttrEnergy, xray.AttrIntensity}
		pairCols = [][2]int{{xray.AttrX, xray.AttrY}}
		indexCols = []int{xray.AttrEnergy}
	}
	return func(dump int) []staging.Operator {
		var out []staging.Operator
		for _, n := range names {
			switch strings.TrimSpace(n) {
			case "sort":
				op, err := ops.NewSortOperator(ops.SortConfig{
					Var: v, KeyMajor: keyMajor, KeyMinor: keyMinor, AggFromColumn: true,
				})
				if err == nil {
					out = append(out, op)
				}
			case "hist":
				op, err := ops.NewHistogramOperator(ops.HistogramConfig{
					Var: v, Columns: histCols,
					Bins: 64, AggRanges: true,
				})
				if err == nil {
					out = append(out, op)
				}
			case "hist2d":
				op, err := ops.NewHistogram2DOperator(ops.Histogram2DConfig{
					Var: v, Pairs: pairCols,
					Bins: 32, AggRanges: true,
				})
				if err == nil {
					out = append(out, op)
				}
			case "index":
				op, err := ops.NewBitmapIndexOperator(ops.BitmapIndexConfig{
					Var: v, Columns: indexCols,
					Bins: 32, AggRanges: true,
				})
				if err == nil {
					out = append(out, op)
				}
			case "reorg":
				op, err := ops.NewReorgOperator(ops.ReorgConfig{Vars: []string{varFor(app)}})
				if err == nil {
					out = append(out, op)
				}
			}
		}
		return out
	}, nil
}

// modeFromConfig reads an ADIOS XML configuration and returns the run
// mode and buffer budget for the application's output group — the
// paper's "switch configurations without changing application code"
// workflow. The gtc workload uses group "particles"; pixie3d uses group
// "pixie".
func modeFromConfig(path, app string) (string, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	cfg, err := adios.ParseConfig(f)
	if err != nil {
		return "", 0, err
	}
	group := "particles"
	if app == "pixie3d" {
		group = "pixie"
	}
	gc, err := cfg.Group(group)
	if err != nil {
		return "", 0, err
	}
	if gc.Schema.FieldIndex(varFor(app)) < 0 {
		return "", 0, fmt.Errorf("config group %q does not declare variable %q", group, varFor(app))
	}
	switch gc.Method {
	case adios.MethodStaging:
		return "staging", cfg.BufferMB, nil
	case adios.MethodMPIIO:
		return "incompute", cfg.BufferMB, nil
	default:
		return "", 0, fmt.Errorf("config method %v unsupported by predata-run", gc.Method)
	}
}

// runInCompute executes the paper's In-Compute-Node configuration: every
// rank writes its dumps synchronously into one shared BP file on the
// modeled parallel file system, and the visible write cost is reported —
// the baseline the staging configuration is compared against.
func runInCompute(app string, compute, particles, local, dumps int) error {
	fs, err := pfs.New(pfs.DefaultConfig())
	if err != nil {
		return err
	}
	bw, err := bp.CreateWriter(fs, "incompute.bp", 8)
	if err != nil {
		return err
	}
	var (
		mu      sync.Mutex
		visible time.Duration
		bytes   int64
		n       int
	)
	writeStep := func(w adios.Writer, rank, step int) error {
		if err := w.BeginStep(int64(step)); err != nil {
			return err
		}
		if app == "pixie3d" {
			nCells := uint64(local * local * local)
			data := make([]float64, nCells)
			if err := w.Write("rho", &ffs.Array{
				Dims: []uint64{nCells}, Global: []uint64{nCells * uint64(compute)},
				Offsets: []uint64{nCells * uint64(rank)}, Float64: data,
			}); err != nil {
				return err
			}
		} else {
			arr := bench.GenParticles(rank, particles, int64(step))
			if err := w.Write("p", arr); err != nil {
				return err
			}
		}
		sr, err := w.EndStep()
		if err != nil {
			return err
		}
		mu.Lock()
		visible += sr.Modeled
		bytes += sr.Bytes
		n++
		mu.Unlock()
		return nil
	}
	err = mpi.Run(compute, func(comm *mpi.Comm) error {
		w, err := adios.NewMPIIOWriter(bw, comm.Rank(), comm.Rank() == 0)
		if err != nil {
			return err
		}
		for step := 0; step < dumps; step++ {
			if err := writeStep(w, comm.Rank(), step); err != nil {
				return err
			}
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		return w.Close()
	})
	if err != nil {
		return err
	}
	fmt.Printf("in-compute-node: %d ranks x %d dumps, %.1f MB total, mean visible write %v/rank/dump (modeled synchronous)\n",
		compute, dumps, float64(bytes)/1e6, (visible / time.Duration(n)).Round(time.Microsecond))
	r, err := bp.OpenReader(fs, "incompute.bp")
	if err != nil {
		return err
	}
	for _, vi := range r.Vars() {
		fmt.Printf("  %s step %d: %d chunks (unmerged layout)\n", vi.Name, vi.Timestep, vi.Chunks)
	}
	return nil
}
