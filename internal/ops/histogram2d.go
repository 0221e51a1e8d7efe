package ops

import (
	"fmt"
	"sync"

	"predata/internal/bp"
	"predata/internal/staging"
)

// Histogram2DConfig configures a Histogram2DOperator.
type Histogram2DConfig struct {
	// Var names the [N, K] array variable holding particle rows.
	Var string
	// Pairs lists the attribute column pairs to histogram jointly — the
	// inputs to parallel-coordinate visualization of GTC particles.
	Pairs [][2]int
	// Bins is the bin count per axis (each histogram is Bins x Bins).
	Bins int
	// Ranges gives the static [lo, hi] per column; AggRanges refines from
	// the aggregates.
	Ranges    map[int][2]float64
	AggRanges bool
	// Output, when non-nil, receives the finished matrices at Finalize.
	Output *bp.Writer
}

// Histogram2DOperator computes 2D histograms over attribute pairs. Its
// structure mirrors HistogramOperator with Bins² counters per pair, making
// both its computation and its shuffle volume proportionally heavier —
// the relationship the paper's Fig. 7(b,c) exhibits.
type Histogram2DOperator struct {
	cfg Histogram2DConfig

	mu     sync.Mutex
	ranges map[int][2]float64
	counts map[[2]int][]int64
	step   int64
}

// NewHistogram2DOperator validates the configuration and returns the
// operator.
func NewHistogram2DOperator(cfg Histogram2DConfig) (*Histogram2DOperator, error) {
	if cfg.Var == "" {
		return nil, fmt.Errorf("ops: 2D histogram needs a variable name")
	}
	if cfg.Bins < 1 {
		return nil, fmt.Errorf("ops: 2D histogram bins %d must be >= 1", cfg.Bins)
	}
	if len(cfg.Pairs) == 0 {
		return nil, fmt.Errorf("ops: 2D histogram needs at least one column pair")
	}
	for _, p := range cfg.Pairs {
		if p[0] < 0 || p[1] < 0 {
			return nil, fmt.Errorf("ops: 2D histogram pair %v has negative column", p)
		}
	}
	return &Histogram2DOperator{cfg: cfg}, nil
}

// Optional implements staging.Optional: histograms are descriptive
// analytics the overload ladder may degrade to sampled input, unlike
// data-integrity operators (sorting, reorganization).
func (h *Histogram2DOperator) Optional() bool { return true }

// Name implements staging.Operator.
func (h *Histogram2DOperator) Name() string { return "histogram2d" }

// Initialize resolves binning ranges.
func (h *Histogram2DOperator) Initialize(ctx *staging.Context, agg map[string]any) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ranges = make(map[int][2]float64)
	h.counts = make(map[[2]int][]int64)
	for _, p := range h.cfg.Pairs {
		for _, c := range [2]int{p[0], p[1]} {
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
	}
	return nil
}

// Map bins the chunk's rows into one Bins x Bins matrix per pair.
func (h *Histogram2DOperator) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	arr, rows, k, err := matrixVar(chunk, h.cfg.Var)
	if err != nil {
		return err
	}
	h.mu.Lock()
	ranges := h.ranges
	h.mu.Unlock()
	bins := h.cfg.Bins
	for tag, p := range h.cfg.Pairs {
		if p[0] >= k || p[1] >= k {
			return fmt.Errorf("ops: 2D histogram pair %v outside %d columns", p, k)
		}
		counts := make([]int64, bins*bins)
		rx, ry := ranges[p[0]], ranges[p[1]]
		for row := 0; row < rows; row++ {
			bx := binOf(arr.Float64[row*k+p[0]], rx, bins)
			by := binOf(arr.Float64[row*k+p[1]], ry, bins)
			counts[bx*bins+by]++
		}
		ctx.Emit(tag, binCounts{Step: chunk.Timestep, Counts: counts})
	}
	return nil
}

// Combine sums matrices bound for the same pair.
func (h *Histogram2DOperator) Combine(tag int, values []any) ([]any, error) {
	if len(values) <= 1 {
		return values, nil
	}
	sum, err := sumBinCounts(values, h.cfg.Bins*h.cfg.Bins)
	if err != nil {
		return nil, fmt.Errorf("ops: 2D histogram combine: %w", err)
	}
	return []any{sum}, nil
}

// Reduce sums the per-rank matrices of one pair.
func (h *Histogram2DOperator) Reduce(ctx *staging.Context, tag int, values []any) error {
	if tag < 0 || tag >= len(h.cfg.Pairs) {
		return fmt.Errorf("ops: 2D histogram reduce got tag %d", tag)
	}
	sum, err := sumBinCounts(values, h.cfg.Bins*h.cfg.Bins)
	if err != nil {
		return fmt.Errorf("ops: 2D histogram reduce: %w", err)
	}
	h.mu.Lock()
	h.counts[h.cfg.Pairs[tag]] = sum.Counts
	h.step = sum.Step
	h.mu.Unlock()
	return nil
}

// Finalize publishes the matrices this rank owns and optionally writes
// them out.
func (h *Histogram2DOperator) Finalize(ctx *staging.Context) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[[2]int][]int64, len(h.counts))
	var chunks []bp.VarChunk
	for p, counts := range h.counts {
		out[p] = counts
		data := make([]float64, len(counts))
		for i, n := range counts {
			data[i] = float64(n)
		}
		chunks = append(chunks, bp.VarChunk{
			Name: fmt.Sprintf("%s_hist2d_%d_%d", h.cfg.Var, p[0], p[1]),
			Dims: []uint64{uint64(h.cfg.Bins), uint64(h.cfg.Bins)},
			Data: data,
		})
	}
	ctx.SetResult("histograms2d", out)
	if h.cfg.Output != nil && len(chunks) > 0 {
		d, err := h.cfg.Output.WritePG(ctx.Rank(), h.step, chunks)
		if err != nil {
			return fmt.Errorf("ops: 2D histogram output: %w", err)
		}
		ctx.SetResult("write_modeled_seconds", d.Seconds())
	}
	return nil
}

var (
	_ staging.Operator = (*Histogram2DOperator)(nil)
	_ staging.Combiner = (*Histogram2DOperator)(nil)
)
