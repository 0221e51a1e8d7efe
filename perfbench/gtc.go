package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"predata/internal/bench"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/predata"
	"predata/internal/staging"
	"predata/internal/trace"
)

// The GTC workloads: 8 writers feed 2 staging ranks in one process, each
// writer sending 10,000 particles x 8 attributes per dump (5.12 MB per
// dump). The loop is closed: a writer issues dump k+1 only after dump
// k-1 has finalized on every staging rank, so at most two dumps are in
// flight. One round is one RunPipeline call of gtcWarmup + gtcSteady
// dumps; a run repeats rounds until its time is spent.
const (
	gtcWriters   = 8
	gtcStaging   = 2
	gtcParticles = 10000
	gtcInputSets = 4 // distinct inputs per writer, cycled by dump
	gtcWarmup    = 2
	gtcSteady    = 40
	gtcDumps     = gtcWarmup + gtcSteady
	gtcRows      = gtcWriters * gtcParticles
	gtcDumpBytes = gtcRows * bench.AttrCount * 8
	// gtcSortSamples is how many steady dumps per round keep their
	// sorted rows for a full order-and-content check; the others only
	// check row conservation.
	gtcSortSamples = 2
)

// gtcPartialCols are the columns MinMaxPartial reduces on every writer:
// the histogram columns and the sort's major key.
var gtcPartialCols = []int{bench.ColZeta, bench.ColRadial, bench.ColWeight, bench.ColRank}

// gtcWorkload is what distinguishes the two GTC workloads.
type gtcWorkload struct {
	durable bool // journal, checkpoints and a flow-control budget
	// ops builds one staging rank's operators for one dump; keep asks
	// the sort to keep its rows for the sampled full check.
	ops func(keep bool) ([]staging.Operator, error)
	// check verifies one dump's results across staging ranks.
	check func(r *report, in *gtcInputs, dump int, results []*staging.Result, sampled bool)
}

// gtcSort: every byte is shuffled all-to-all and then sorted by (rank,
// id) — the most communication-heavy operator. Bypasses wal, flowctl,
// dataspaces and serve.
var gtcSort = &gtcWorkload{
	ops: func(keep bool) ([]staging.Operator, error) {
		op, err := ops.NewSortOperator(ops.SortConfig{
			Var: "p", KeyMajor: bench.ColRank, KeyMinor: bench.ColID,
			AggFromColumn: true, KeepResult: keep,
		})
		return []staging.Operator{op}, err
	},
	check: checkSortDump,
}

// gtcHistDurable: the production durable configuration. Histogram
// combiners collapse the shuffle to bin counts, so the time goes to Map
// binning and to journal append and fsync.
var gtcHistDurable = &gtcWorkload{
	durable: true,
	ops: func(bool) ([]staging.Operator, error) {
		h1, err := ops.NewHistogramOperator(ops.HistogramConfig{
			Var: "p", Columns: []int{bench.ColZeta, bench.ColRadial, bench.ColWeight},
			Bins: 64, AggRanges: true,
		})
		if err != nil {
			return nil, err
		}
		h2, err := ops.NewHistogram2DOperator(ops.Histogram2DConfig{
			Var: "p", Pairs: [][2]int{{bench.ColZeta, bench.ColRadial}}, Bins: 32, AggRanges: true,
		})
		return []staging.Operator{h1, h2}, err
	},
	check: checkHistDump,
}

// gtcDurableBufferMB is each staging rank's flow-control budget: with at
// most two 2.56 MB dumps per rank in flight it is never approached, so
// the overload ladder stays at normal (a check enforces it).
const gtcDurableBufferMB = 64

// gtcInputs are the generated particles: recs[set][writer], and for the
// full sort check pos[set][writer][id], the row holding particle id.
type gtcInputs struct {
	recs     [gtcInputSets][gtcWriters]ffs.Record
	pos      [gtcInputSets][gtcWriters][]int32
	writerOf map[*ffs.Array]int
}

func genGTCInputs(seed int64) *gtcInputs {
	in := &gtcInputs{writerOf: make(map[*ffs.Array]int)}
	for set := 0; set < gtcInputSets; set++ {
		for w := 0; w < gtcWriters; w++ {
			arr := bench.GenParticles(w, gtcParticles, seed*gtcInputSets+int64(set))
			in.recs[set][w] = ffs.Record{"p": arr}
			in.writerOf[arr] = w
			pos := make([]int32, gtcParticles)
			for row := 0; row < gtcParticles; row++ {
				pos[int(arr.Float64[row*bench.AttrCount+bench.ColID])] = int32(row)
			}
			in.pos[set][w] = pos
		}
	}
	return in
}

func (in *gtcInputs) particles(set, writer int) []float64 {
	return in.recs[set][writer]["p"].(*ffs.Array).Float64
}

// dumpClock tracks when each dump has finalized on every staging rank.
// Writers wait on it to close the loop; the Finalize that completes the
// last warm-up dump marks the start of the steady window.
type dumpClock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	need    int // Finalize calls per dump: staging ranks x operators
	count   []int
	done    []time.Time
	aborted bool

	steadyStart          time.Time
	allocStart, allocEnd uint64
}

func newDumpClock(dumps, need int) *dumpClock {
	c := &dumpClock{need: need, count: make([]int, dumps), done: make([]time.Time, dumps)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (c *dumpClock) finalized(dump int) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count[dump]++
	if c.count[dump] != c.need {
		return
	}
	c.done[dump] = now
	switch dump {
	case gtcWarmup - 1:
		// Writers are parked at the warm-up barrier and staging is
		// idle, so the allocation counter splits cleanly here.
		c.allocStart = totalAlloc()
		c.steadyStart = time.Now()
	case len(c.count) - 1:
		c.allocEnd = totalAlloc()
	}
	c.cond.Broadcast()
}

// wait blocks until dump has finalized on every staging rank.
func (c *dumpClock) wait(dump int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.count[dump] < c.need && !c.aborted {
		c.cond.Wait()
	}
	if c.count[dump] < c.need {
		return fmt.Errorf("dump %d never finalized on every staging rank", dump)
	}
	return nil
}

func (c *dumpClock) abort() {
	c.mu.Lock()
	c.aborted = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// gtcRoundTimeout bounds one round; a wedged round fails instead of
// hanging the run.
const gtcRoundTimeout = 60 * time.Second

// gtcRound is one RunPipeline call's measurements.
type gtcRound struct {
	traced     bool
	ok         bool // the pipeline returned without error
	wall       time.Duration
	setup      time.Duration
	steadyWall time.Duration
	allocBytes uint64
	latMs      []float64    // per steady dump
	visUs      []float64    // per steady write
	partialUs  []float64    // per steady write
	timers     [][]*timedOp // [dump] every operator instance of the dump
	res        *predata.PipelineResult
	rec        *trace.Recording
}

type writeSample struct {
	start   time.Time
	visible time.Duration
	partial time.Duration
}

func runGTCRound(cfg runConfig, w *gtcWorkload, in *gtcInputs, round int, traced bool, r *report) *gtcRound {
	probe, err := w.ops(false)
	if !r.check("operators built", err) {
		return &gtcRound{traced: traced}
	}
	clock := newDumpClock(gtcDumps, gtcStaging*len(probe))
	g := &gtcRound{traced: traced, timers: make([][]*timedOp, gtcDumps)}

	// Seeded choice of the steady dumps whose sorted rows are kept.
	rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(round)))
	sampled := make(map[int]bool)
	for len(sampled) < gtcSortSamples {
		sampled[gtcWarmup+rng.Intn(gtcSteady)] = true
	}

	samples := make([][gtcWriters]writeSample, gtcDumps)
	partial := ops.MinMaxPartial("p", gtcPartialCols)
	// The hook runs inside Client.Write on the writer's own goroutine;
	// the particle array it is handed names the writer.
	var lastPartial [gtcWriters]time.Duration
	timedPartial := func(schema *ffs.Schema, rec ffs.Record) (any, error) {
		t0 := time.Now()
		v, err := partial(schema, rec)
		if wr, ok := in.writerOf[rec["p"].(*ffs.Array)]; ok {
			lastPartial[wr] = time.Since(t0)
		}
		return v, err
	}
	var timersMu sync.Mutex
	pcfg := predata.PipelineConfig{
		NumCompute:       gtcWriters,
		NumStaging:       gtcStaging,
		Dumps:            gtcDumps,
		PartialCalculate: timedPartial,
		Aggregate:        ops.MinMaxAggregate(),
		Engine:           staging.Config{Workers: 2},
		PullConcurrency:  2,
		Timeout:          gtcRoundTimeout,
	}
	if w.durable {
		pcfg.WALDir = filepath.Join(cfg.scratch, fmt.Sprintf("wal-%d", round))
		pcfg.CheckpointEvery = 4
		pcfg.BufferMB = gtcDurableBufferMB
		defer os.RemoveAll(pcfg.WALDir)
	}
	var tr *trace.Recorder
	if traced {
		// About 100 events per dump: 32k slots leave a sevenfold margin
		// without a ring so large it changes the heap the GC paces by.
		tr = trace.New(trace.Config{Shards: 16, ShardCapacity: 1 << 11,
			NumCompute: gtcWriters, NumStaging: gtcStaging, Dumps: gtcDumps})
		pcfg.Tracer = tr
	}
	compute := func(comm *mpi.Comm, client *predata.Client) error {
		wr := comm.Rank()
		for k := 0; k < gtcDumps; k++ {
			gate := k - 2
			if k == gtcWarmup {
				gate = k - 1 // warm-up barrier: the steady window starts clean
			}
			if gate >= 0 {
				if err := clock.wait(gate); err != nil {
					return err
				}
			}
			s := &samples[k][wr]
			s.start = time.Now()
			vis, err := client.Write(bench.ParticleSchema, in.recs[k%gtcInputSets][wr], int64(k))
			if err != nil {
				return err
			}
			s.visible = vis
			s.partial = lastPartial[wr]
		}
		return nil
	}
	opsFor := func(dump int) []staging.Operator {
		list, err := w.ops(sampled[dump])
		if err != nil {
			// Unreachable (probe above has the same configuration), but
			// fail the round fast rather than leave writers waiting.
			clock.abort()
			return nil
		}
		out := make([]staging.Operator, len(list))
		timers := make([]*timedOp, len(list))
		for i, op := range list {
			timers[i] = &timedOp{Operator: op, dump: dump, onFinalize: clock.finalized}
			out[i] = wrapOp(op, timers[i])
		}
		timersMu.Lock()
		g.timers[dump] = append(g.timers[dump], timers...)
		timersMu.Unlock()
		return out
	}

	watchdog := time.AfterFunc(gtcRoundTimeout, clock.abort)
	start := time.Now()
	res, err := predata.RunPipeline(pcfg, compute, opsFor)
	g.wall = time.Since(start)
	watchdog.Stop()
	g.res = res
	g.ok = r.check("pipeline round completes", err)
	r.attempted += gtcDumps
	if !g.ok {
		r.failed += gtcDumps
		return g
	}
	if tr != nil {
		g.rec = tr.Snapshot()
		r.check("trace records every event", dropErr(g.rec.Dropped))
		_, verr := trace.Verify(g.rec)
		r.check("trace.Verify", verr)
	}

	// Per-dump correctness; a dump fails on Degraded or a failed check.
	for k := 0; k < gtcDumps; k++ {
		results := make([]*staging.Result, gtcStaging)
		degraded := false
		for rank := 0; rank < gtcStaging; rank++ {
			results[rank] = res.StagingResults[rank][k]
			degraded = degraded || results[rank].Degraded
		}
		okDump := r.check("dump not degraded", boolErr(!degraded, "dump %d came back Degraded", k))
		before := r.failedChecks()
		w.check(r, in, k, results, sampled[k])
		if !okDump || r.failedChecks() != before {
			r.failed++
		}
	}
	if w.durable {
		ov := res.Overload
		r.check("flow-control ladder stays normal", boolErr(
			ov != nil && ov.MaxLevel == 0 && ov.SpilledChunks == 0 && ov.ShedChunks == 0 && ov.PassedChunks == 0,
			"overload report %+v", ov))
	}

	g.setup = clock.done[gtcWarmup-1].Sub(start)
	g.steadyWall = clock.done[gtcDumps-1].Sub(clock.steadyStart)
	g.allocBytes = clock.allocEnd - clock.allocStart
	for k := gtcWarmup; k < gtcDumps; k++ {
		first := samples[k][0].start
		for wr := 0; wr < gtcWriters; wr++ {
			s := samples[k][wr]
			if s.start.Before(first) {
				first = s.start
			}
			g.visUs = append(g.visUs, us(s.visible))
			g.partialUs = append(g.partialUs, us(s.partial))
		}
		g.latMs = append(g.latMs, ms(clock.done[k].Sub(first)))
	}
	return g
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func boolErr(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

func dropErr(dropped int64) error {
	return boolErr(dropped == 0, "flight recorder dropped %d events", dropped)
}

func (r *report) failedChecks() int {
	n := 0
	for _, t := range r.checks {
		n += t.failed
	}
	return n
}

// checkSortDump: the row count is conserved on every dump; on sampled
// dumps the concatenated output must be exactly every particle, in
// (rank, id) order, with all eight attributes intact.
func checkSortDump(r *report, in *gtcInputs, dump int, results []*staging.Result, sampled bool) {
	var rows int64
	for _, res := range results {
		n, _ := res.PerOperator["sort"]["rows"].(int64)
		rows += n
	}
	r.check("sort conserves rows", boolErr(rows == gtcRows, "dump %d: %d rows out, %d in", dump, rows, gtcRows))
	if !sampled {
		return
	}
	r.check("sort order and content", checkSorted(in, dump%gtcInputSets, results))
}

func checkSorted(in *gtcInputs, set int, results []*staging.Result) error {
	const k = bench.AttrCount
	row := 0
	for rank, res := range results {
		arr, ok := res.PerOperator["sort"]["sorted"].(*ffs.Array)
		if !ok {
			return fmt.Errorf("staging rank %d kept no sorted rows", rank)
		}
		n := len(arr.Float64) / k
		for i := 0; i < n; i++ {
			if row >= gtcRows {
				return fmt.Errorf("more than %d sorted rows", gtcRows)
			}
			wr, id := row/gtcParticles, row%gtcParticles
			p := int(in.pos[set][wr][id])
			want := in.particles(set, wr)[p*k : (p+1)*k]
			got := arr.Float64[i*k : (i+1)*k]
			for c := range want {
				if got[c] != want[c] {
					return fmt.Errorf("sorted row %d (staging rank %d) is %v, want particle (%d,%d) %v", row, rank, got, wr, id, want)
				}
			}
			row++
		}
	}
	return boolErr(row == gtcRows, "%d sorted rows, want %d", row, gtcRows)
}

// checkHistDump: every histogram's bins sum to the dump's particle
// count, and each histogram is owned by exactly one staging rank.
func checkHistDump(r *report, _ *gtcInputs, dump int, results []*staging.Result, _ bool) {
	seen1 := map[int]int{}
	seen2 := map[[2]int]int{}
	var err error
	for _, res := range results {
		h1, _ := res.PerOperator["histogram"]["histograms"].(map[int][]int64)
		for col, counts := range h1 {
			seen1[col]++
			if s := sumCounts(counts); s != gtcRows || len(counts) != 64 {
				err = errors.Join(err, fmt.Errorf("dump %d column %d: %d bins summing to %d, want 64 summing to %d", dump, col, len(counts), s, gtcRows))
			}
		}
		h2, _ := res.PerOperator["histogram2d"]["histograms2d"].(map[[2]int][]int64)
		for pair, counts := range h2 {
			seen2[pair]++
			if s := sumCounts(counts); s != gtcRows || len(counts) != 32*32 {
				err = errors.Join(err, fmt.Errorf("dump %d pair %v: %d bins summing to %d, want 1024 summing to %d", dump, pair, len(counts), s, gtcRows))
			}
		}
	}
	for _, col := range []int{bench.ColZeta, bench.ColRadial, bench.ColWeight} {
		if seen1[col] != 1 {
			err = errors.Join(err, fmt.Errorf("dump %d: column %d histogram owned by %d ranks", dump, col, seen1[col]))
		}
	}
	if p := [2]int{bench.ColZeta, bench.ColRadial}; seen2[p] != 1 || len(seen2) != 1 {
		err = errors.Join(err, fmt.Errorf("dump %d: 2D histograms %v", dump, seen2))
	}
	r.check("histogram bins sum to particle count", err)
}

func sumCounts(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// runGTC runs rounds of the workload until the run's time is spent: all
// untraced for the end-to-end metrics, or alternating untraced and
// traced for the per-layer ones and the tracing overhead.
func runGTC(cfg runConfig, w *gtcWorkload) *report {
	r := newReport()
	in := genGTCInputs(cfg.seed)
	layers := newGTCLayerSums()
	var rounds []*gtcRound
	start := time.Now()
	for i := 0; ; i++ {
		traced := cfg.traced && i%2 == 1
		if i >= gtcMinRounds(cfg.traced) && !timeLeft(start, cfg.budget, roundWalls(rounds)) {
			break
		}
		g := runGTCRound(cfg, w, in, i, traced, r)
		if g.ok && g.traced {
			layers.add(g)
		}
		// Drop the round's results so every round starts from the same
		// heap: the inputs and the samples so far.
		g.res, g.rec, g.timers = nil, nil, nil
		rounds = append(rounds, g)
		runtime.GC()
		if !g.ok {
			break // a broken pipeline will not mend; report what failed
		}
	}
	if cfg.traced {
		layers.report(cfg, w, in, rounds, r)
	} else {
		gtcEndToEnd(rounds, r)
	}
	return r
}

func gtcMinRounds(traced bool) int {
	if traced {
		return 4 // two untraced, two traced
	}
	return 3
}

func roundWalls(rounds []*gtcRound) []float64 {
	var ws []float64
	for _, g := range rounds {
		ws = append(ws, g.wall.Seconds())
	}
	return ws
}

// timeLeft reports whether another round, as long as the median one so
// far, still ends within the budget.
func timeLeft(start time.Time, budget time.Duration, walls []float64) bool {
	next := time.Duration(median(walls) * float64(time.Second))
	return time.Since(start)+next <= budget
}

func gtcEndToEnd(rounds []*gtcRound, r *report) {
	var setups, goodput, lat, vis []float64
	var bytes, alloc float64
	for _, g := range rounds {
		if !g.ok {
			continue
		}
		setups = append(setups, g.setup.Seconds())
		goodput = append(goodput, gtcSteady*gtcDumpBytes/1e6/g.steadyWall.Seconds())
		lat = append(lat, g.latMs...)
		vis = append(vis, g.visUs...)
		bytes += gtcSteady * gtcDumpBytes
		alloc += float64(g.allocBytes)
	}
	n := len(lat)
	if len(goodput) > 0 {
		r.set("setup_s", median(setups), fmt.Sprintf("median of %d rounds: RunPipeline call to the end of %d warm-up dumps", len(setups), gtcWarmup))
		r.set("goodput_mbps", median(goodput), fmt.Sprintf("raw particle bytes per steady second, median of %d rounds", len(goodput)))
		r.set("alloc_per_input_byte", alloc/bytes, "TotalAlloc delta over steady dumps / raw particle bytes")
	}
	if n > 0 {
		r.set("latency_p50_ms", median(lat), fmt.Sprintf("dump_latency_p50_ms: first Client.Write to last Finalize, %d steady dumps", n))
	}
	if v, ok := percentile(lat, 0.90); ok {
		r.set("latency_tail_ms", v, fmt.Sprintf("dump_latency_p90_ms over %d steady dumps", n))
	} else {
		r.notes["latency_tail_ms"] = fmt.Sprintf("dump_latency_p90_ms needs %d+ dumps, have %d", 10*minBeyond, n)
	}
	if len(vis) > 0 {
		r.set("write_visible_p50_us", median(vis), fmt.Sprintf("Client.Write duration, %d steady writes", len(vis)))
	}
}
