package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"predata/internal/apps/xray"
	"predata/internal/elastic"
	"predata/internal/ffs"
	"predata/internal/flowctl"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/predata"
	"predata/internal/staging"
)

// The elastic experiment's detector schedule: one quiet warmup dump, a
// sustained 80x acquisition burst, then a quiet tail. A burst dump is
// ~5x one staging rank's budget, so static-small provisioning can only
// spill, while static-large wastes its extra ranks through the quiet
// stretches — the trade-off the autoscaler resolves.
var elasticFactors = []float64{1, 80, 80, 80, 80, 80, 1, 1, 1, 1}

const (
	elasticCompute    = 8
	elasticPool       = 3 // Max active ranks; the static-large leg's size
	elasticBaseFrames = 200
	elasticBufferMB   = 1
)

// ElasticRun is one leg of the elasticity experiment in BENCH_*.json
// form: provisioning cost (rank-dumps), overflow volume, and latency.
type ElasticRun struct {
	Name         string `json:"name"`
	StagingRanks int    `json:"staging_ranks"` // provisioned pool size
	WallMS       int64  `json:"wall_ms"`
	DumpMeanMS   int64  `json:"dump_mean_ms"`
	DumpMaxMS    int64  `json:"dump_max_ms"`
	SpilledBytes int64  `json:"spilled_bytes"`
	PassedBytes  int64  `json:"passed_bytes"`
	ShedChunks   int64  `json:"shed_chunks"`
	Throttles    int64  `json:"throttles"`
	// RankDumps is the run's rank-hour proxy: the sum of serving rank
	// counts over all dumps (static legs: ranks x dumps).
	RankDumps int64 `json:"rank_dumps"`
	// Autoscaler activity; zero on the static legs.
	Grows     int64 `json:"grows"`
	Shrinks   int64 `json:"shrinks"`
	MinActive int   `json:"min_active"`
	MaxActive int   `json:"max_active"`
	DataLoss  int64 `json:"data_loss"`
}

// ElasticSummary is the JSON document the elastic experiment emits.
type ElasticSummary struct {
	hosted
	Seed       int64        `json:"seed"`
	BaseFrames int          `json:"base_frames"`
	Factors    []float64    `json:"burst_factors"`
	Runs       []ElasticRun `json:"runs"`
}

// elasticCfg is the pipeline shape shared by all three legs: only the
// provisioned staging count varies. Spill and pass limits sit far above
// the workload so the ladder never sheds — every frame flows through
// the histogram and conservation is exact.
func elasticCfg(numStaging int, spillDir string) predata.PipelineConfig {
	return predata.PipelineConfig{
		NumCompute:       elasticCompute,
		NumStaging:       numStaging,
		Dumps:            len(elasticFactors),
		PartialCalculate: ops.MinMaxPartial("frames", []int{xray.AttrEnergy}),
		Aggregate:        ops.MinMaxAggregate(),
		Engine:           staging.Config{Workers: 1},
		PullConcurrency:  4,
		BufferMB:         elasticBufferMB,
		Overload: flowctl.Policy{
			Patience:        time.Millisecond,
			SpillDir:        spillDir,
			SpillLimitBytes: 1 << 40,
			PassLimitBytes:  1 << 40,
		},
		Timeout: 2 * time.Minute,
	}
}

// elasticWorkload drives the detector proxy over the experiment's
// shared burst schedule.
func elasticWorkload(seed int64) predata.ComputeFunc {
	return func(comm *mpi.Comm, client *predata.Client) error {
		det, err := xray.New(xray.Config{
			Rank:       comm.Rank(),
			NumRanks:   comm.Size(),
			BaseFrames: elasticBaseFrames,
			Steps:      len(elasticFactors),
			Seed:       seed,
			Schedule:   elasticFactors,
		})
		if err != nil {
			return err
		}
		schema := xray.Schema()
		for step := 0; step < det.Steps(); step++ {
			if _, err := client.Write(schema, ffs.Record{"frames": det.Frames(int64(step))}, int64(step)); err != nil {
				return err
			}
		}
		return nil
	}
}

func elasticOps(dump int) []staging.Operator {
	h, err := ops.NewHistogramOperator(ops.HistogramConfig{
		Var: "frames", Columns: []int{xray.AttrEnergy}, Bins: 64, AggRanges: true,
	})
	if err != nil {
		return nil
	}
	return []staging.Operator{h}
}

// elasticRow condenses one leg into its JSON form.
func elasticRow(name string, numStaging int, res *predata.PipelineResult, wall time.Duration, scale *predata.ScaleReport) ElasticRun {
	row := ElasticRun{
		Name:         name,
		StagingRanks: numStaging,
		WallMS:       wall.Milliseconds(),
		RankDumps:    int64(numStaging) * int64(len(elasticFactors)),
		MinActive:    numStaging,
		MaxActive:    numStaging,
	}
	// Every rank follows the same explicit schedule, so the frame count
	// is exact; one histogrammed column makes the census total the
	// frames processed.
	_, got := census(res, len(elasticFactors))
	for _, f := range elasticFactors {
		row.DataLoss += int64(elasticBaseFrames*f) * elasticCompute
	}
	row.DataLoss -= got
	if ov := res.Overload; ov != nil {
		row.SpilledBytes = ov.SpilledBytes
		row.PassedBytes = ov.PassedBytes
		row.ShedChunks = ov.ShedChunks
		row.Throttles = ov.Throttles
	}
	var sum time.Duration
	var n int64
	var max time.Duration
	for _, perDump := range res.StagingStats {
		for _, st := range perDump {
			if st == nil {
				continue
			}
			d := st.GatherWall + st.AggregateWall + st.ProcessWall
			sum += d
			n++
			if d > max {
				max = d
			}
		}
	}
	if n > 0 {
		row.DumpMeanMS = (sum / time.Duration(n)).Milliseconds()
	}
	row.DumpMaxMS = max.Milliseconds()
	if scale != nil {
		row.RankDumps = scale.RankDumps
		row.Grows = scale.Grows
		row.Shrinks = scale.Shrinks
		row.MinActive = scale.MinActive
		row.MaxActive = scale.MaxActive
	}
	return row
}

// Elastic runs the autoscaling experiment: the bursty detector-frame
// workload under three provisioning strategies — a static pool sized
// for the quiet baseline (static-small), a static pool sized for the
// burst (static-large), and the elastic pool that grows into the burst
// and drains back out. The elastic leg must overflow less than
// static-small and consume fewer rank-dumps than static-large, losing
// no frames anywhere. When jsonPath is non-empty the three legs are
// also written there as JSON.
func Elastic(w io.Writer, jsonPath string) error {
	seed, err := faultSeed()
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("Elastic — telemetry-driven staging autoscaling (seed %d)", seed))

	// leg runs one provisioning strategy: a static pool of numStaging
	// ranks, or the autoscaler over it when pol is set.
	leg := func(name string, numStaging int, pol *elastic.Policy) (ElasticRun, error) {
		dir, err := os.MkdirTemp("", "predata-elastic-*")
		if err != nil {
			return ElasticRun{}, err
		}
		defer os.RemoveAll(dir)
		cfg := elasticCfg(numStaging, dir)
		start := time.Now()
		var (
			res   *predata.PipelineResult
			scale *predata.ScaleReport
		)
		if pol == nil {
			res, err = predata.RunPipeline(cfg, elasticWorkload(seed), elasticOps)
		} else {
			res, scale, err = predata.RunElastic(cfg, predata.ElasticConfig{Policy: *pol}, elasticWorkload(seed), elasticOps)
		}
		if err != nil {
			return ElasticRun{}, fmt.Errorf("bench: %s leg: %w", name, err)
		}
		return elasticRow(name, numStaging, res, time.Since(start), scale), nil
	}
	small, err := leg("static-small", 1, nil)
	if err != nil {
		return err
	}
	large, err := leg("static-large", elasticPool, nil)
	if err != nil {
		return err
	}
	elasticLeg, err := leg(fmt.Sprintf("elastic 1:%d", elasticPool), elasticPool,
		&elastic.Policy{Min: 1, Max: elasticPool, GrowK: 1, ShrinkJ: 2, Cooldown: 1})
	if err != nil {
		return err
	}
	rows := []ElasticRun{small, large, elasticLeg}
	fmt.Fprintf(w, "%-16s %8s %9s %9s %9s %10s %10s %7s %6s %6s\n",
		"run", "wall", "dumpMean", "dumpMax", "spillMB", "rankDumps", "active", "grows", "shrnk", "loss")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %6dms %7dms %7dms %9.2f %10d %7s %7d %6d %6d\n",
			r.Name, r.WallMS, r.DumpMeanMS, r.DumpMaxMS,
			float64(r.SpilledBytes+r.PassedBytes)/(1<<20), r.RankDumps,
			fmt.Sprintf("%d..%d", r.MinActive, r.MaxActive), r.Grows, r.Shrinks, r.DataLoss)
	}

	// The invariants the experiment exists to demonstrate.
	var c checks
	for _, r := range rows {
		c.check(r.DataLoss == 0, "%s lost %d frames", r.Name, r.DataLoss)
	}
	overflow := func(r ElasticRun) int64 { return r.SpilledBytes + r.PassedBytes }
	c.check(overflow(elasticLeg) < overflow(small), "elastic overflow %d B not below static-small %d B",
		overflow(elasticLeg), overflow(small))
	c.check(elasticLeg.RankDumps < large.RankDumps, "elastic rank-dumps %d not below static-large %d",
		elasticLeg.RankDumps, large.RankDumps)
	c.check(elasticLeg.Grows != 0, "elastic leg never grew: %+v", elasticLeg)
	return c.finish(w, jsonPath, &ElasticSummary{
		Seed: seed, BaseFrames: elasticBaseFrames, Factors: elasticFactors, Runs: rows,
	}, "elastic leg overflows less than static-small and consumes fewer rank-dumps than static-large, with zero frames lost")
}
