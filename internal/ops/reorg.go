package ops

import (
	"fmt"
	"sync"

	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/staging"
)

// ReorgConfig configures a ReorgOperator.
type ReorgConfig struct {
	// Vars lists the global-array variables to merge (Pixie3D's eight 3D
	// arrays). Each must appear in every chunk as *ffs.Array with Global
	// and Offsets set.
	Vars []string
	// Output, when non-nil, receives each merged contiguous global array
	// as one chunk at Finalize — producing the "merged" BP layout whose
	// read performance Fig. 11 measures.
	Output *bp.Writer
	// KeepResult stores the merged arrays in the dump result under the
	// variable names. Intended for tests and small runs.
	KeepResult bool
}

// ReorgOperator merges the scattered partial chunks of global arrays into
// larger contiguous arrays: the paper's Pixie3D array-layout
// reorganization. Map routes each variable's partial chunks to the staging
// rank owning that variable; Reduce assembles the contiguous global array;
// Finalize writes it.
type ReorgOperator struct {
	cfg    ReorgConfig
	varIdx map[string]int

	mu     sync.Mutex
	merged map[string]*ffs.Array
	step   int64
}

// NewReorgOperator validates the configuration and returns the operator.
func NewReorgOperator(cfg ReorgConfig) (*ReorgOperator, error) {
	if len(cfg.Vars) == 0 {
		return nil, fmt.Errorf("ops: reorg needs at least one variable")
	}
	idx := make(map[string]int, len(cfg.Vars))
	for i, v := range cfg.Vars {
		if v == "" {
			return nil, fmt.Errorf("ops: reorg variable %d has empty name", i)
		}
		if _, dup := idx[v]; dup {
			return nil, fmt.Errorf("ops: reorg variable %q repeated", v)
		}
		idx[v] = i
	}
	return &ReorgOperator{cfg: cfg, varIdx: idx}, nil
}

// Name implements staging.Operator.
func (o *ReorgOperator) Name() string { return "reorg" }

// Initialize resets per-dump state.
func (o *ReorgOperator) Initialize(ctx *staging.Context, agg map[string]any) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.merged = make(map[string]*ffs.Array, len(o.cfg.Vars))
	return nil
}

// Map emits each variable's partial chunk under the variable's tag.
func (o *ReorgOperator) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	for _, name := range o.cfg.Vars {
		v, ok := chunk.Record[name]
		if !ok {
			return fmt.Errorf("ops: chunk from rank %d missing variable %q", chunk.WriterRank, name)
		}
		arr, ok := v.(*ffs.Array)
		if !ok {
			return fmt.Errorf("ops: variable %q is %T, want *ffs.Array", name, v)
		}
		if arr.Global == nil {
			return fmt.Errorf("ops: variable %q is not a global array", name)
		}
		if arr.Float64 == nil {
			return fmt.Errorf("ops: variable %q is not a float64 array", name)
		}
		ctx.Emit(o.varIdx[name], partialChunk{Step: chunk.Timestep, Array: arr})
	}
	return nil
}

// partialChunk is the reorg shuffle value: one partial chunk of a
// global array and the dump's timestep, so the rank owning the variable
// files the merged array under the dump even if it mapped no chunk.
type partialChunk struct {
	Step int64
	*ffs.Array
}

// Reduce assembles one variable's contiguous global array from its
// partial chunks.
func (o *ReorgOperator) Reduce(ctx *staging.Context, tag int, values []any) error {
	if tag < 0 || tag >= len(o.cfg.Vars) {
		return fmt.Errorf("ops: reorg reduce got tag %d", tag)
	}
	name := o.cfg.Vars[tag]
	var global []uint64
	var step int64
	for _, v := range values {
		arr := v.(partialChunk)
		step = arr.Step
		if global == nil {
			global = arr.Global
		} else if !dimsEqual(global, arr.Global) {
			return fmt.Errorf("ops: variable %q chunks disagree on global dims (%v vs %v)",
				name, global, arr.Global)
		}
	}
	if global == nil {
		return nil
	}
	n := uint64(1)
	for _, d := range global {
		n *= d
	}
	out := make([]float64, n)
	var covered uint64
	for _, v := range values {
		arr := v.(partialChunk)
		scatterRows(out, global, arr.Float64, arr.Dims, arr.Offsets)
		covered += arr.Elems()
	}
	if covered != n {
		return fmt.Errorf("ops: variable %q chunks cover %d of %d elements", name, covered, n)
	}
	o.mu.Lock()
	o.merged[name] = &ffs.Array{Dims: global, Global: global,
		Offsets: make([]uint64, len(global)), Float64: out}
	o.step = step
	o.mu.Unlock()
	return nil
}

// Finalize writes the merged arrays this rank owns.
func (o *ReorgOperator) Finalize(ctx *staging.Context) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	var names []string
	var chunks []bp.VarChunk
	for name, arr := range o.merged {
		names = append(names, name)
		chunks = append(chunks, bp.VarChunk{
			Name:    name,
			Dims:    arr.Dims,
			Global:  arr.Global,
			Offsets: arr.Offsets,
			Data:    arr.Float64,
		})
		if o.cfg.KeepResult {
			ctx.SetResult(name, arr)
		}
	}
	ctx.SetResult("merged_vars", names)
	if o.cfg.Output != nil && len(chunks) > 0 {
		if err := o.cfg.Output.SetAttribute("layout", "merged contiguous global arrays"); err != nil {
			return fmt.Errorf("ops: reorg attribute: %w", err)
		}
		d, err := o.cfg.Output.WritePG(ctx.Rank(), o.step, chunks)
		if err != nil {
			return fmt.Errorf("ops: reorg output: %w", err)
		}
		ctx.SetResult("write_modeled_seconds", d.Seconds())
	}
	return nil
}

func dimsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scatterRows places a row-major chunk into its position within the
// row-major global array, one innermost-dimension run at a time.
func scatterRows(dst []float64, global []uint64, src []float64, dims, offsets []uint64) {
	rank := len(dims)
	if rank == 0 || len(src) == 0 {
		return
	}
	rowLen := dims[rank-1]
	if rowLen == 0 {
		return
	}
	rows := uint64(len(src)) / rowLen
	idx := make([]uint64, rank)
	for row := uint64(0); row < rows; row++ {
		var dstOff uint64
		stride := uint64(1)
		for d := rank - 1; d >= 0; d-- {
			coord := offsets[d]
			if d < rank-1 {
				coord += idx[d]
			}
			dstOff += coord * stride
			stride *= global[d]
		}
		copy(dst[dstOff:dstOff+rowLen], src[row*rowLen:(row+1)*rowLen])
		for d := rank - 2; d >= 0; d-- {
			idx[d]++
			if idx[d] < dims[d] {
				break
			}
			idx[d] = 0
		}
	}
}

var _ staging.Operator = (*ReorgOperator)(nil)
