package ops

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/staging"
)

// SortConfig configures a SortOperator.
type SortConfig struct {
	// Var names the [N, K] array variable holding the particle rows.
	Var string
	// KeyMajor and KeyMinor are the label columns: rows sort by
	// (row[KeyMajor], row[KeyMinor]). For GTC particles these are the
	// process-rank and local-id attributes.
	KeyMajor, KeyMinor int
	// MajorRange is the global [lo, hi] range of the major key, used to
	// range-partition rows across staging ranks. If AggFromColumn is true,
	// the range is taken from the aggregates for column KeyMajor instead.
	MajorRange    [2]float64
	AggFromColumn bool
	// Output, when non-nil, receives the sorted rows of each staging rank
	// as one process group at Finalize.
	Output *bp.Writer
	// KeepResult stores the sorted rows in the dump result under "sorted"
	// (an *ffs.Array). Large; intended for tests and small runs.
	KeepResult bool
}

// SortOperator globally sorts particle rows by their label. Map
// range-partitions rows by the major key (an all-to-all exchange follows),
// Reduce sorts each rank's range locally, and Finalize optionally writes
// the sorted runs. Since partition ranges are ordered by staging rank, the
// concatenation of rank 0..M-1 outputs is the fully sorted sequence —
// restoring the order particles had at simulation start.
type SortOperator struct {
	cfg SortConfig

	mu     sync.Mutex
	k      int // columns per row, discovered from the first chunk
	lo, hi float64
	step   int64
	sorted []float64 // rows owned by this rank, sorted
	rows   int
}

// NewSortOperator validates the configuration and returns the operator.
func NewSortOperator(cfg SortConfig) (*SortOperator, error) {
	if cfg.Var == "" {
		return nil, fmt.Errorf("ops: sort needs a variable name")
	}
	if cfg.KeyMajor < 0 || cfg.KeyMinor < 0 {
		return nil, fmt.Errorf("ops: sort key columns must be >= 0")
	}
	if !cfg.AggFromColumn && cfg.MajorRange[1] < cfg.MajorRange[0] {
		return nil, fmt.Errorf("ops: sort major range %v is inverted", cfg.MajorRange)
	}
	return &SortOperator{cfg: cfg}, nil
}

// Name implements staging.Operator.
func (s *SortOperator) Name() string { return "sort" }

// Initialize picks up the partition range.
func (s *SortOperator) Initialize(ctx *staging.Context, agg map[string]any) error {
	r := s.cfg.MajorRange
	if s.cfg.AggFromColumn {
		r = rangeFromAgg(agg, s.cfg.KeyMajor, r)
	}
	if r[1] < r[0] {
		return fmt.Errorf("ops: sort major range %v is inverted", r)
	}
	s.lo, s.hi = r[0], r[1]
	s.sorted = nil
	s.rows = 0
	return nil
}

// bucketOf maps a major-key value to the staging rank owning it.
func (s *SortOperator) bucketOf(major float64, ranks int) int {
	span := s.hi - s.lo
	if span <= 0 {
		return 0
	}
	b := int(float64(ranks) * (major - s.lo) / (span * (1 + 1e-12)))
	if b < 0 {
		b = 0
	}
	if b >= ranks {
		b = ranks - 1
	}
	return b
}

// Map range-partitions the chunk's rows: rows destined for staging rank b
// are emitted under tag b as one packed block. A first pass counts the
// rows per destination, so each row is copied once into a block of its
// exact size; all blocks share one allocation.
func (s *SortOperator) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	arr, rows, k, err := matrixVar(chunk, s.cfg.Var)
	if err != nil {
		return err
	}
	if s.cfg.KeyMajor >= k || s.cfg.KeyMinor >= k {
		return fmt.Errorf("ops: sort keys (%d,%d) outside %d columns", s.cfg.KeyMajor, s.cfg.KeyMinor, k)
	}
	s.mu.Lock()
	if s.k == 0 {
		s.k = k
	} else if s.k != k {
		s.mu.Unlock()
		return fmt.Errorf("ops: chunk with %d columns after %d", k, s.k)
	}
	s.mu.Unlock()

	ranks := ctx.Ranks()
	data, maj := arr.Float64, s.cfg.KeyMajor
	// off[b+1] counts destination b's values; the prefix sum turns
	// off[b] into where b's block starts in packed.
	off := make([]int, ranks+1)
	for r := 0; r < rows; r++ {
		off[s.bucketOf(data[r*k+maj], ranks)+1] += k
	}
	for b := 0; b < ranks; b++ {
		off[b+1] += off[b]
	}
	packed := make([]float64, rows*k)
	for b := 0; b < ranks; b++ {
		if lo, hi := off[b], off[b+1]; hi > lo {
			ctx.Emit(b, rowBlock{K: k, Step: chunk.Timestep, Runs: [][]float64{packed[lo:hi:hi]}})
		}
	}
	// Fill the emitted blocks (nothing reads them before Map returns),
	// advancing off[b] as destination b's write cursor.
	for r := 0; r < rows; r++ {
		row := data[r*k : (r+1)*k]
		b := s.bucketOf(row[maj], ranks)
		off[b] += copy(packed[off[b]:], row)
	}
	return nil
}

// rowBlock is the shuffle wire format: runs of packed rows with their
// width and the dump's timestep, so a receiving rank that mapped no
// chunks of its own still knows the layout and where to file the rows.
type rowBlock struct {
	K    int
	Step int64
	Runs [][]float64
}

// Combine gathers the row blocks bound for one destination into one
// value, cutting per-value shuffle overhead without copying a row: the
// merged block lists every run.
func (s *SortOperator) Combine(tag int, values []any) ([]any, error) {
	if len(values) <= 1 {
		return values, nil
	}
	first := values[0].(rowBlock)
	n := 0
	for _, v := range values {
		b := v.(rowBlock)
		if b.K != first.K {
			return nil, fmt.Errorf("ops: sort combine saw row widths %d and %d", first.K, b.K)
		}
		n += len(b.Runs)
	}
	runs := make([][]float64, 0, n)
	for _, v := range values {
		runs = append(runs, v.(rowBlock).Runs...)
	}
	return []any{rowBlock{K: first.K, Step: first.Step, Runs: runs}}, nil
}

// Partition routes tag b to staging rank b (identity): tags are already
// destination ranks.
func (s *SortOperator) Partition(tag, ranks int) int { return tag }

// Reduce receives all row blocks for this rank's key range and sorts
// them, together with any rows an earlier Reduce call sorted, into one
// fresh run. Rows with equal keys keep their arrival order.
func (s *SortOperator) Reduce(ctx *staging.Context, tag int, values []any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var runs [][]float64
	if len(s.sorted) > 0 {
		runs = append(runs, s.sorted)
	}
	for _, v := range values {
		b := v.(rowBlock)
		if s.k == 0 {
			s.k = b.K
		} else if s.k != b.K {
			return fmt.Errorf("ops: sort reduce saw row widths %d and %d", s.k, b.K)
		}
		s.step = b.Step
		runs = append(runs, b.Runs...)
	}
	if s.k == 0 {
		return nil
	}
	if s.cfg.KeyMajor >= s.k || s.cfg.KeyMinor >= s.k {
		return fmt.Errorf("ops: sort keys (%d,%d) outside %d columns", s.cfg.KeyMajor, s.cfg.KeyMinor, s.k)
	}
	s.sorted = sortRows(runs, s.k, s.cfg.KeyMajor, s.cfg.KeyMinor)
	s.rows = len(s.sorted) / s.k
	return nil
}

// Finalize publishes and/or writes the sorted rows.
func (s *SortOperator) Finalize(ctx *staging.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx.SetResult("rows", int64(s.rows))
	if s.cfg.KeepResult {
		k := s.k
		if k == 0 {
			k = 1
		}
		ctx.SetResult("sorted", &ffs.Array{
			Dims:    []uint64{uint64(s.rows), uint64(k)},
			Float64: s.sorted,
		})
	}
	if s.cfg.Output != nil && s.rows > 0 {
		// Provenance: record how the data was prepared, for downstream
		// readers (the paper's "metadata annotation to speed up
		// subsequent data access").
		if err := s.cfg.Output.SetAttribute("sorted_by",
			fmt.Sprintf("columns (%d,%d)", s.cfg.KeyMajor, s.cfg.KeyMinor)); err != nil {
			return fmt.Errorf("ops: sort attribute: %w", err)
		}
		d, err := s.cfg.Output.WritePG(ctx.Rank(), s.step, []bp.VarChunk{{
			Name: s.cfg.Var + "_sorted",
			Dims: []uint64{uint64(s.rows), uint64(s.k)},
			Data: s.sorted,
		}})
		if err != nil {
			return fmt.Errorf("ops: sort output: %w", err)
		}
		ctx.SetResult("write_modeled_seconds", d.Seconds())
	}
	return nil
}

// sortKey maps a float64 to bits whose unsigned order is the float
// order: a < b exactly when sortKey(a) < sortKey(b), for any a and b
// that are not NaN. -0 is folded onto +0, since they compare equal.
// NaNs map above +Inf (sign clear) or below -Inf (sign set).
func sortKey(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sortEntry is one row in the radix sort: the key it is being sorted
// by and its position in arrival order.
type sortEntry struct {
	key uint64
	idx uint32
}

// sortRows returns the rows of runs (each packed k floats wide) ordered
// by (row[major], row[minor]) under <, stable in arrival (run, then row)
// order. Two stable LSD radix sorts over compact entries do it, by the
// minor key and then by the major key; each row is copied once, from
// its run into its place in the result.
func sortRows(runs [][]float64, k, major, minor int) []float64 {
	n := 0
	for _, run := range runs {
		n += len(run) / k
	}
	if n == 0 {
		return nil
	}
	ents := make([]sortEntry, 2*n)
	src, spare := ents[:n], ents[n:]
	// majors holds each row's major key by arrival position, then (once
	// the sort is done) the row's place in the result.
	majors := make([]uint64, n)
	i := 0
	for _, run := range runs {
		for r := 0; r+k <= len(run); r += k {
			majors[i] = sortKey(run[r+major])
			src[i] = sortEntry{sortKey(run[r+minor]), uint32(i)}
			i++
		}
	}
	src, spare = radixSort(src, spare)
	for i := range src {
		src[i].key = majors[src[i].idx]
	}
	src, _ = radixSort(src, spare)
	place := majors
	for i := range src {
		place[src[i].idx] = uint64(i)
	}
	out := make([]float64, n*k)
	i = 0
	for _, run := range runs {
		for r := 0; r+k <= len(run); r += k {
			p := int(place[i]) * k
			copy(out[p:p+k], run[r:r+k])
			i++
		}
	}
	return out
}

// radixSort stably sorts src by key with an LSD radix sort, using spare
// (as long as src) for scratch, and returns the sorted slice and the
// other one. Only the span of key bits on which entries differ is
// sorted on, in as few digits as cover it; one pass over src builds
// every digit's histogram, and a digit on which all keys agree costs
// no scatter pass. A digit is at most 12 bits wide (on the gtc-shaped
// BenchmarkSortReduce, 12 beat 8, 10, 11 and 13) and has no more
// buckets than there are entries.
func radixSort(src, spare []sortEntry) (sorted, other []sortEntry) {
	var diff uint64
	for i := range src {
		diff |= src[i].key ^ src[0].key
	}
	if diff == 0 {
		return src, spare
	}
	low := uint(bits.TrailingZeros64(diff))
	span := uint(bits.Len64(diff)) - low
	maxWidth := uint(min(12, max(4, bits.Len(uint(len(src))))))
	passes := (span + maxWidth - 1) / maxWidth
	width := (span + passes - 1) / passes
	buckets := 1 << width
	mask := uint64(buckets - 1)
	hist := make([]int, int(passes)*buckets)
	for i := range src {
		key := src[i].key >> low
		for p := uint(0); p < passes; p++ {
			hist[int(p)*buckets+int(key>>(p*width)&mask)]++
		}
	}
	for p := uint(0); p < passes; p++ {
		h := hist[int(p)*buckets : int(p+1)*buckets]
		if slices.Contains(h, len(src)) {
			continue // every key has the same digit here
		}
		pos := 0
		for v, c := range h {
			h[v] = pos
			pos += c
		}
		s := low + p*width
		for _, e := range src {
			v := e.key >> s & mask
			spare[h[v]] = e
			h[v]++
		}
		src, spare = spare, src
	}
	return src, spare
}

// Compile-time interface checks.
var (
	_ staging.Operator    = (*SortOperator)(nil)
	_ staging.Combiner    = (*SortOperator)(nil)
	_ staging.Partitioner = (*SortOperator)(nil)
)
