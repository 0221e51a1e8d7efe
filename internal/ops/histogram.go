package ops

import (
	"fmt"
	"sync"

	"predata/internal/bp"
	"predata/internal/staging"
)

// HistogramConfig configures a HistogramOperator.
type HistogramConfig struct {
	// Var names the [N, K] array variable holding particle rows.
	Var string
	// Columns lists the attribute columns to histogram, one histogram per
	// column (GTC histograms every particle attribute for monitoring).
	Columns []int
	// Bins is the bin count of each histogram.
	Bins int
	// Ranges gives the static [lo, hi] per column. When AggRanges is true,
	// ranges are refined from the aggregates (MinMaxAggregate keys).
	Ranges    map[int][2]float64
	AggRanges bool
	// Output, when non-nil, receives the finished histograms as a process
	// group at Finalize — the paper's "8 MB histogram files" whose write
	// variability perturbs the In-Compute-Node configuration.
	Output *bp.Writer
}

// HistogramOperator computes 1D histograms over particle attributes. It is
// computation-dominant: Map bins locally, the combiner collapses counts to
// one vector per column, and the shuffle moves only Bins counters per
// column. Tags are column positions, so histograms spread across staging
// ranks.
type HistogramOperator struct {
	cfg HistogramConfig

	mu     sync.Mutex
	ranges map[int][2]float64
	counts map[int][]int64 // column -> final counts (on the owning rank)
	step   int64
}

// NewHistogramOperator validates the configuration and returns the operator.
func NewHistogramOperator(cfg HistogramConfig) (*HistogramOperator, error) {
	if cfg.Var == "" {
		return nil, fmt.Errorf("ops: histogram needs a variable name")
	}
	if cfg.Bins < 1 {
		return nil, fmt.Errorf("ops: histogram bins %d must be >= 1", cfg.Bins)
	}
	if len(cfg.Columns) == 0 {
		return nil, fmt.Errorf("ops: histogram needs at least one column")
	}
	seen := map[int]bool{}
	for _, c := range cfg.Columns {
		if c < 0 {
			return nil, fmt.Errorf("ops: histogram column %d is negative", c)
		}
		if seen[c] {
			return nil, fmt.Errorf("ops: histogram column %d repeated", c)
		}
		seen[c] = true
	}
	return &HistogramOperator{cfg: cfg}, nil
}

// Optional implements staging.Optional: histograms are descriptive
// analytics the overload ladder may degrade to sampled input, unlike
// data-integrity operators (sorting, reorganization).
func (h *HistogramOperator) Optional() bool { return true }

// Name implements staging.Operator.
func (h *HistogramOperator) Name() string { return "histogram" }

// Initialize resolves binning ranges.
func (h *HistogramOperator) Initialize(ctx *staging.Context, agg map[string]any) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ranges = make(map[int][2]float64, len(h.cfg.Columns))
	h.counts = make(map[int][]int64)
	for _, c := range h.cfg.Columns {
		r, ok := h.cfg.Ranges[c]
		if !ok {
			r = [2]float64{0, 1}
		}
		if h.cfg.AggRanges {
			r = rangeFromAgg(agg, c, r)
		}
		if r[1] <= r[0] {
			r[1] = r[0] + 1
		}
		h.ranges[c] = r
	}
	return nil
}

// binOf maps a value to its bin under range r.
func binOf(x float64, r [2]float64, bins int) int {
	b := int(float64(bins) * (x - r[0]) / (r[1] - r[0]))
	if b < 0 {
		b = 0
	}
	if b >= bins {
		b = bins - 1
	}
	return b
}

// Map bins the chunk's rows locally and emits one count vector per column.
func (h *HistogramOperator) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	arr, rows, k, err := matrixVar(chunk, h.cfg.Var)
	if err != nil {
		return err
	}
	h.mu.Lock()
	ranges := h.ranges
	h.mu.Unlock()
	for tag, c := range h.cfg.Columns {
		if c >= k {
			return fmt.Errorf("ops: histogram column %d outside %d columns", c, k)
		}
		counts := make([]int64, h.cfg.Bins)
		r := ranges[c]
		for row := 0; row < rows; row++ {
			counts[binOf(arr.Float64[row*k+c], r, h.cfg.Bins)]++
		}
		ctx.Emit(tag, binCounts{Step: chunk.Timestep, Counts: counts})
	}
	return nil
}

// binCounts is the histograms' shuffle value: one histogram's bin
// counts and the dump's timestep, so the rank owning the histogram
// files its output under the dump even if it mapped no chunk itself.
type binCounts struct {
	Step   int64
	Counts []int64
}

// sumBinCounts adds up values, each a binCounts of n bins.
func sumBinCounts(values []any, n int) (binCounts, error) {
	sum := binCounts{Counts: make([]int64, n)}
	for _, v := range values {
		b, ok := v.(binCounts)
		if !ok || len(b.Counts) != n {
			return binCounts{}, fmt.Errorf("bad value %T", v)
		}
		sum.Step = b.Step
		for i, c := range b.Counts {
			sum.Counts[i] += c
		}
	}
	return sum, nil
}

// Combine sums the local count vectors per column before the shuffle.
func (h *HistogramOperator) Combine(tag int, values []any) ([]any, error) {
	if len(values) <= 1 {
		return values, nil
	}
	sum, err := sumBinCounts(values, h.cfg.Bins)
	if err != nil {
		return nil, fmt.Errorf("ops: histogram combine: %w", err)
	}
	return []any{sum}, nil
}

// Reduce sums the per-rank count vectors of one column.
func (h *HistogramOperator) Reduce(ctx *staging.Context, tag int, values []any) error {
	if tag < 0 || tag >= len(h.cfg.Columns) {
		return fmt.Errorf("ops: histogram reduce got tag %d", tag)
	}
	sum, err := sumBinCounts(values, h.cfg.Bins)
	if err != nil {
		return fmt.Errorf("ops: histogram reduce: %w", err)
	}
	h.mu.Lock()
	h.counts[h.cfg.Columns[tag]] = sum.Counts
	h.step = sum.Step
	h.mu.Unlock()
	return nil
}

// Finalize publishes the histograms this rank owns and optionally writes
// them to the output file.
func (h *HistogramOperator) Finalize(ctx *staging.Context) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[int][]int64, len(h.counts))
	var chunks []bp.VarChunk
	for c, counts := range h.counts {
		out[c] = counts
		data := make([]float64, len(counts))
		for i, n := range counts {
			data[i] = float64(n)
		}
		chunks = append(chunks, bp.VarChunk{
			Name: fmt.Sprintf("%s_hist_col%d", h.cfg.Var, c),
			Dims: []uint64{uint64(len(data))},
			Data: data,
		})
	}
	ctx.SetResult("histograms", out)
	ranges := make(map[int][2]float64, len(h.ranges))
	for c, r := range h.ranges {
		ranges[c] = r
	}
	ctx.SetResult("ranges", ranges)
	if h.cfg.Output != nil && len(chunks) > 0 {
		d, err := h.cfg.Output.WritePG(ctx.Rank(), h.step, chunks)
		if err != nil {
			return fmt.Errorf("ops: histogram output: %w", err)
		}
		ctx.SetResult("write_modeled_seconds", d.Seconds())
	}
	return nil
}

var (
	_ staging.Operator = (*HistogramOperator)(nil)
	_ staging.Combiner = (*HistogramOperator)(nil)
)
