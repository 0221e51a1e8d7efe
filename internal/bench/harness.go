package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"predata/internal/faults"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/predata"
	"predata/internal/staging"
)

// faultSeed resolves the fault seed of the robustness experiments: the
// PREDATA_FAULT_SEED environment variable when set (the CI soak lanes
// sweep it), 1 otherwise. An unparsable value is an error, so a typo in
// a seed sweep cannot quietly rerun seed 1.
func faultSeed() (int64, error) {
	s := os.Getenv("PREDATA_FAULT_SEED")
	if s == "" {
		return 1, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bench: PREDATA_FAULT_SEED: %w", err)
	}
	return v, nil
}

// slowOp wraps an operator with a fixed per-chunk Map cost, modelling an
// expensive analytics kernel so the consumer drains slower than the
// fabric delivers — the byte-rate imbalance that forces the flow ladder
// to act. Optional-ness passes through so shedding still applies.
type slowOp struct {
	staging.Operator
	delay time.Duration
}

func (s *slowOp) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	time.Sleep(s.delay)
	return s.Operator.Map(ctx, chunk)
}

func (s *slowOp) Optional() bool {
	o, ok := s.Operator.(staging.Optional)
	return ok && o.Optional()
}

// runGTC times one leg of the robustness experiments' GTC workload:
// each writer streams cfg.Dumps dumps of perRank particles (dump d from
// seed d) to staging ranks computing the MinMax partial/aggregate over
// p and a 2-column 64-bin histogram. cfg holds the shape and what the
// leg varies; spec is its fault plan ("" for none) and mapDelay a
// slowOp Map cost (0 for none).
func runGTC(cfg predata.PipelineConfig, perRank int, spec string, seed int64, mapDelay time.Duration) (*predata.PipelineResult, time.Duration, error) {
	if spec != "" {
		plan, err := faults.ParsePlan(spec, seed)
		if err != nil {
			return nil, 0, err
		}
		cfg.FaultPlan = &plan
	}
	cfg.PartialCalculate = ops.MinMaxPartial("p", []int{ColZeta, ColRadial, ColRank})
	cfg.Aggregate = ops.MinMaxAggregate()
	cfg.Timeout = 2 * time.Minute
	opsFor := func(int) []staging.Operator {
		h, err := ops.NewHistogramOperator(ops.HistogramConfig{
			Var: "p", Columns: []int{ColZeta, ColRadial}, Bins: 64, AggRanges: true,
		})
		if err != nil {
			return nil
		}
		if mapDelay > 0 {
			return []staging.Operator{&slowOp{Operator: h, delay: mapDelay}}
		}
		return []staging.Operator{h}
	}
	start := time.Now()
	res, err := predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			for step := 0; step < cfg.Dumps; step++ {
				arr := GenParticles(comm.Rank(), perRank, int64(step))
				if _, err := client.Write(ParticleSchema, ffs.Record{"p": arr}, int64(step)); err != nil {
					return err
				}
			}
			return nil
		},
		opsFor)
	return res, time.Since(start), err
}

// census is the data-conservation figure of a histogrammed run: every
// histogram bin summed per result row, over all staging ranks. Each
// value lands in exactly one bin per histogrammed column, so a lossless
// dump counts values x columns. Row i is each rank's i-th served dump:
// the dump itself on a static pool (a crashed rank's rows stop at its
// crash), served order on an elastic one, where only the total means
// anything.
func census(res *predata.PipelineResult, dumps int) (perDump []int64, total int64) {
	perDump = make([]int64, dumps)
	for _, rows := range res.StagingResults {
		for i, r := range rows {
			if r == nil || i >= dumps {
				continue
			}
			hists, _ := r.PerOperator["histogram"]["histograms"].(map[int][]int64)
			for _, bins := range hists {
				for _, n := range bins {
					perDump[i] += n
					total += n
				}
			}
		}
	}
	return perDump, total
}

// checks collects an experiment's failed invariants, so every invariant
// is evaluated — and the numbers behind them written out — before the
// experiment fails: one broken invariant never hides another.
type checks []error

func (c *checks) check(ok bool, format string, args ...any) {
	if !ok {
		*c = append(*c, fmt.Errorf("bench: "+format, args...))
	}
}

// Host fingerprints the machine a BENCH_*.json document was measured on.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// CPUModel is /proc/cpuinfo's first "model name"; empty where that
	// file does not exist.
	CPUModel string `json:"cpu_model"`
}

// hosted is embedded first in every experiment summary: finish stamps
// the fingerprint into it, so each document records where it ran.
type hosted struct {
	Host Host `json:"host"`
}

func (h *hosted) stamp() {
	h.Host = Host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	info, _ := os.ReadFile("/proc/cpuinfo") // absent off Linux: no model
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// finish closes an experiment: it writes doc as indented JSON to
// jsonPath (skipped when empty), stamped with the host fingerprint, and
// only then returns every failed check joined — or, when all held,
// prints the experiment's verdict.
func (c checks) finish(w io.Writer, jsonPath string, doc interface{ stamp() }, verdict string) error {
	if jsonPath != "" {
		doc.stamp()
		out, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonPath, append(out, '\n'), 0o644)
		}
		if err != nil {
			c = append(c, fmt.Errorf("bench: write %s: %w", jsonPath, err))
		} else {
			fmt.Fprintf(w, "\nresults written to %s\n", jsonPath)
		}
	}
	if len(c) > 0 {
		return errors.Join(c...)
	}
	fmt.Fprintf(w, "\n%s\n", verdict)
	return nil
}
