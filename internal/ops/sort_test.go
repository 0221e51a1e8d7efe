package ops

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/pfs"
	"predata/internal/predata"
	"predata/internal/staging"
)

// sortKeyFloats are the label values the sort must order like <:
// infinities, signed zeros, subnormals, extremes and a few small
// integers, so random draws collide into duplicate keys.
var sortKeyFloats = []float64{
	math.Inf(-1), -math.MaxFloat64, -1e300, -2.5, -1, -math.SmallestNonzeroFloat64, -1e-310,
	math.Copysign(0, -1), 0, 1e-310, math.SmallestNonzeroFloat64, 0.5, 1, 2, 3, 1e300,
	math.MaxFloat64, math.Inf(1),
}

func randomSortKey(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	return sortKeyFloats[rng.Intn(len(sortKeyFloats))]
}

// TestSortMatchesStableReference: Reduce's output is exactly what a
// stable sort by the (major, minor) < comparator makes of the rows in
// arrival order (value, then run, then row) — a bit-exact permutation,
// non-decreasing, with equal keys in arrival order. The operator never
// mapped a chunk, like a staging rank that receives all its rows
// through the shuffle.
func TestSortMatchesStableReference(t *testing.T) {
	const k = 3 // major, minor, arrival number
	for _, seed := range propSeeds {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 20; trial++ {
			var values []any
			var arrival [][]float64
			for v := rng.Intn(4) + 1; v > 0; v-- {
				var runs [][]float64
				for r := rng.Intn(3) + 1; r > 0; r-- {
					run := make([]float64, 0, 64*k)
					for i := rng.Intn(64) + 1; i > 0; i-- {
						row := []float64{randomSortKey(rng), randomSortKey(rng), float64(len(arrival))}
						arrival = append(arrival, row)
						run = append(run, row...)
					}
					runs = append(runs, run)
				}
				values = append(values, rowBlock{K: k, Step: 3, Runs: runs})
			}
			want := append([][]float64(nil), arrival...)
			sort.SliceStable(want, func(a, b int) bool {
				if want[a][0] != want[b][0] {
					return want[a][0] < want[b][0]
				}
				return want[a][1] < want[b][1]
			})

			op, err := NewSortOperator(SortConfig{Var: "p", KeyMajor: 0, KeyMinor: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := op.Reduce(nil, 0, values); err != nil {
				t.Fatal(err)
			}
			if op.rows != len(want) || len(op.sorted) != len(want)*k || op.step != 3 {
				t.Fatalf("seed %d trial %d: %d rows (%d floats) at step %d, want %d rows at step 3",
					seed, trial, op.rows, len(op.sorted), op.step, len(want))
			}
			for i, w := range want {
				got := op.sorted[i*k : (i+1)*k]
				for c := range w {
					if math.Float64bits(got[c]) != math.Float64bits(w[c]) {
						t.Fatalf("seed %d trial %d: row %d is %v, want %v", seed, trial, i, got, w)
					}
				}
			}
		}
	}
}

// TestSortReduceKeepsEarlierRows: a second Reduce call sorts its rows
// together with the first call's, which keep their place ahead of new
// rows with equal keys.
func TestSortReduceKeepsEarlierRows(t *testing.T) {
	op, err := NewSortOperator(SortConfig{Var: "p", KeyMajor: 0, KeyMinor: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := rowBlock{K: 3, Step: 1, Runs: [][]float64{{2, 0, 10, 1, 0, 11}}}
	second := rowBlock{K: 3, Step: 1, Runs: [][]float64{{1, 0, 12, 0, 5, 13}}}
	if err := op.Reduce(nil, 0, []any{first}); err != nil {
		t.Fatal(err)
	}
	if err := op.Reduce(nil, 1, []any{second}); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 5, 13, 1, 0, 11, 1, 0, 12, 2, 0, 10}
	if fmt.Sprint(op.sorted) != fmt.Sprint(want) || op.rows != 4 {
		t.Fatalf("sorted %v (%d rows), want %v", op.sorted, op.rows, want)
	}
}

// FuzzSortKeyOrder: for any two non-NaN floats the radix key orders
// them exactly as < does (and ties exactly when ==), and rows keyed by
// any pairing of the two and NaN all come back from the sort, bit for
// bit.
func FuzzSortKeyOrder(f *testing.F) {
	for _, p := range [][2]float64{
		{0, math.Copysign(0, -1)}, {-1, 1}, {math.Inf(-1), -math.MaxFloat64},
		{math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}, {1e-310, 2e-310},
		{math.NaN(), 1}, {math.Inf(1), math.MaxFloat64},
	} {
		f.Add(math.Float64bits(p[0]), math.Float64bits(p[1]))
	}
	f.Fuzz(func(t *testing.T, a, b uint64) {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		if !math.IsNaN(x) && !math.IsNaN(y) {
			kx, ky := sortKey(x), sortKey(y)
			if (x < y) != (kx < ky) || (x == y) != (kx == ky) {
				t.Fatalf("%v vs %v: keys %#x vs %#x disagree with <", x, y, kx, ky)
			}
		}
		vals := []float64{x, y, math.NaN(), math.Float64frombits(0xfff8000000000001)}
		var run []float64
		for _, maj := range vals {
			for _, min := range vals {
				run = append(run, maj, min, float64(len(run)/3))
			}
		}
		out := sortRows([][]float64{run}, 3, 0, 1)
		if len(out) != len(run) {
			t.Fatalf("%d floats out, %d in", len(out), len(run))
		}
		seen := make([]bool, len(run)/3)
		for i := 0; i < len(out); i += 3 {
			id := int(out[i+2])
			src := run[3*id : 3*id+3]
			if seen[id] || math.Float64bits(out[i]) != math.Float64bits(src[0]) ||
				math.Float64bits(out[i+1]) != math.Float64bits(src[1]) {
				t.Fatalf("row %d of the output (%v) is not input row %d (%v) or repeats it", i/3, out[i:i+3], id, src)
			}
			seen[id] = true
		}
	})
}

// allocProbe measures the allocations of the wrapped operator's Map
// from inside a real engine run, where Map has a staging Context.
type allocProbe struct {
	staging.Operator
	allocs float64
}

func (p *allocProbe) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	var err error
	p.allocs = testing.AllocsPerRun(20, func() {
		if e := p.Operator.Map(ctx, chunk); e != nil {
			err = e
		}
	})
	return err
}

// TestSortMapAllocations gates Map's allocations: the row offsets, the
// one packed buffer, and per destination the run list and the boxed
// block — none of them growing with the chunk.
func TestSortMapAllocations(t *testing.T) {
	op, err := NewSortOperator(SortConfig{Var: "p", KeyMajor: colRank, KeyMinor: colID, MajorRange: [2]float64{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	probe := &allocProbe{Operator: op}
	chunks := make(chan *staging.Chunk, 1)
	chunks <- &staging.Chunk{Timestep: 1, Schema: particleSchema,
		Record: ffs.Record{"p": makeParticles(0, 10000, rand.New(rand.NewSource(1)))}}
	close(chunks)
	err = mpi.Run(1, func(c *mpi.Comm) error {
		_, err := staging.NewEngine(staging.Config{Workers: 1}).ProcessDump(c, chunks, []staging.Operator{probe}, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if probe.allocs > 4 {
		t.Fatalf("Map of a 10k-row chunk made %v allocations, want <= 4", probe.allocs)
	}
}

// TestOutputFiledUnderItsDump: a staging rank that maps no chunk but
// owns rows or bins through the shuffle writes them under the dump's
// timestep. With 2 writers on 3 staging ranks, rank 2 maps nothing; it
// owns writer 1's sorted rows, and the third histogram, matrix and
// merged variable. Every output variable must then appear under both
// timesteps with the same number of chunks.
func TestOutputFiledUnderItsDump(t *testing.T) {
	schema := &ffs.Schema{Name: "mixed", Fields: []ffs.Field{
		{Name: "p", Kind: ffs.KindArray}, {Name: "g0", Kind: ffs.KindArray},
		{Name: "g1", Kind: ffs.KindArray}, {Name: "g2", Kind: ffs.KindArray}}}
	for _, c := range []struct {
		name string
		op   func(out *bp.Writer) (staging.Operator, error)
	}{
		{"sort", func(out *bp.Writer) (staging.Operator, error) {
			return NewSortOperator(SortConfig{Var: "p", KeyMajor: colRank, KeyMinor: colID, AggFromColumn: true, Output: out})
		}},
		{"histogram", func(out *bp.Writer) (staging.Operator, error) {
			return NewHistogramOperator(HistogramConfig{Var: "p", Columns: []int{colX, colY, colZ}, Bins: 4, Output: out})
		}},
		{"histogram2d", func(out *bp.Writer) (staging.Operator, error) {
			return NewHistogram2DOperator(Histogram2DConfig{Var: "p", Pairs: [][2]int{{colX, colY}, {colX, colZ}, {colY, colZ}}, Bins: 4, Output: out})
		}},
		{"reorg", func(out *bp.Writer) (staging.Operator, error) {
			return NewReorgOperator(ReorgConfig{Vars: []string{"g0", "g1", "g2"}, Output: out})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs, err := pfs.New(pfs.Config{NumOSTs: 4, OSTBandwidth: 1e9, StripeSize: 1 << 20, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			bw, err := bp.CreateWriter(fs, "out.bp", 4)
			if err != nil {
				t.Fatal(err)
			}
			_, err = predata.RunPipeline(predata.PipelineConfig{
				NumCompute:       2,
				NumStaging:       3,
				Dumps:            2,
				PartialCalculate: MinMaxPartial("p", []int{colRank}),
				Aggregate:        MinMaxAggregate(),
			}, func(comm *mpi.Comm, client *predata.Client) error {
				rank := comm.Rank()
				rng := rand.New(rand.NewSource(int64(rank) + 1))
				for step := int64(0); step < 2; step++ {
					rec := ffs.Record{"p": makeParticles(rank, 50, rng)}
					for _, g := range []string{"g0", "g1", "g2"} {
						rec[g] = &ffs.Array{Dims: []uint64{1, 4}, Global: []uint64{2, 4},
							Offsets: []uint64{uint64(rank), 0}, Float64: []float64{1, 2, 3, 4}}
					}
					if _, err := client.Write(schema, rec, step); err != nil {
						return err
					}
				}
				return nil
			}, func(dump int) []staging.Operator {
				op, err := c.op(bw)
				if err != nil {
					t.Error(err)
					return nil
				}
				return []staging.Operator{op}
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bw.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := bp.OpenReader(fs, "out.bp")
			if err != nil {
				t.Fatal(err)
			}
			chunks := map[string]map[int64]int{}
			for _, v := range r.Vars() {
				if chunks[v.Name] == nil {
					chunks[v.Name] = map[int64]int{}
				}
				chunks[v.Name][v.Timestep] = v.Chunks
			}
			if len(chunks) == 0 {
				t.Fatal("no output written")
			}
			for name, per := range chunks {
				if len(per) != 2 || per[0] != per[1] {
					t.Errorf("%s: chunks per timestep %v, want the same count under 0 and 1", name, per)
				}
			}
		})
	}
}

// gtcSortValues builds what one staging rank of the gtc-sort workload
// reduces per dump: 40k particle rows from four writers, as two
// Combined values of two runs each, every run in shuffled id order.
func gtcSortValues() []any {
	const perWriter = 10000
	rng := rand.New(rand.NewSource(1))
	var values []any
	for v := 0; v < 2; v++ {
		var runs [][]float64
		for w := 2 * v; w < 2*v+2; w++ {
			runs = append(runs, makeParticles(w, perWriter, rng).Float64)
		}
		values = append(values, rowBlock{K: attrCount, Step: 1, Runs: runs})
	}
	return values
}

func BenchmarkSortReduce(b *testing.B) {
	values := gtcSortValues()
	b.SetBytes(4 * 10000 * attrCount * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := NewSortOperator(SortConfig{Var: "p", KeyMajor: colRank, KeyMinor: colID, MajorRange: [2]float64{0, 3}})
		if err != nil {
			b.Fatal(err)
		}
		if err := op.Reduce(nil, 0, values); err != nil {
			b.Fatal(err)
		}
	}
}
