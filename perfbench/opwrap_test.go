package main

import (
	"reflect"
	"sync/atomic"
	"testing"

	"predata/internal/bench"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/predata"
	"predata/internal/staging"
)

// testOps builds the benchmark's three operators, the sort keeping its
// rows so the comparison covers them.
func testOps() ([]staging.Operator, error) {
	sortOp, err := ops.NewSortOperator(ops.SortConfig{
		Var: "p", KeyMajor: bench.ColRank, KeyMinor: bench.ColID, AggFromColumn: true, KeepResult: true,
	})
	if err != nil {
		return nil, err
	}
	hist, err := gtcHistDurable.ops(false)
	return append([]staging.Operator{sortOp}, hist...), err
}

// bareOp implements only staging.Operator.
type bareOp struct{}

func (bareOp) Name() string                                      { return "bare" }
func (bareOp) Initialize(*staging.Context, map[string]any) error { return nil }
func (bareOp) Map(*staging.Context, *staging.Chunk) error        { return nil }
func (bareOp) Reduce(*staging.Context, int, []any) error         { return nil }
func (bareOp) Finalize(*staging.Context) error                   { return nil }

func TestWrapOpForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	list, err := testOps()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range append(list, bareOp{}) {
		w := wrapOp(op, &timedOp{Operator: op})
		for _, iface := range []struct {
			name string
			has  func(any) bool
		}{
			{"Combiner", func(x any) bool { _, ok := x.(staging.Combiner); return ok }},
			{"Partitioner", func(x any) bool { _, ok := x.(staging.Partitioner); return ok }},
			{"Optional", func(x any) bool { _, ok := x.(staging.Optional); return ok }},
		} {
			if got, want := iface.has(w), iface.has(op); got != want {
				t.Errorf("%s: wrapped implements %s = %v, operator = %v", op.Name(), iface.name, got, want)
			}
		}
		if o, ok := w.(staging.Optional); ok && !o.Optional() {
			t.Errorf("%s: wrapped Optional() = false", op.Name())
		}
	}
}

// runSmall runs a small pipeline with the three operators, wrapped or
// not, and returns its results.
func runSmall(t *testing.T, wrap bool, finalized *atomic.Int64) *predata.PipelineResult {
	t.Helper()
	const writers, dumps = 4, 2
	res, err := predata.RunPipeline(predata.PipelineConfig{
		NumCompute:       writers,
		NumStaging:       2,
		Dumps:            dumps,
		PartialCalculate: ops.MinMaxPartial("p", gtcPartialCols),
		Aggregate:        ops.MinMaxAggregate(),
		Engine:           staging.Config{Workers: 2},
		PullConcurrency:  2,
	}, func(comm *mpi.Comm, client *predata.Client) error {
		for k := 0; k < dumps; k++ {
			arr := bench.GenParticles(comm.Rank(), 2000, int64(k))
			if _, err := client.Write(bench.ParticleSchema, ffs.Record{"p": arr}, int64(k)); err != nil {
				return err
			}
		}
		return nil
	}, func(dump int) []staging.Operator {
		list, err := testOps()
		if err != nil {
			t.Error(err) // not the test goroutine: no t.Fatal
			return nil
		}
		if !wrap {
			return list
		}
		for i, op := range list {
			list[i] = wrapOp(op, &timedOp{Operator: op, dump: dump, onFinalize: func(int) { finalized.Add(1) }})
		}
		return list
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWrappedRunMatchesUnwrapped(t *testing.T) {
	var finalized atomic.Int64
	plain := runSmall(t, false, nil)
	wrapped := runSmall(t, true, &finalized)
	for rank := range plain.StagingResults {
		for dump, want := range plain.StagingResults[rank] {
			got := wrapped.StagingResults[rank][dump]
			if !reflect.DeepEqual(got.PerOperator, want.PerOperator) {
				t.Errorf("rank %d dump %d: wrapped PerOperator differs from unwrapped", rank, dump)
			}
			if !reflect.DeepEqual(got.OperatorEmitted, want.OperatorEmitted) {
				t.Errorf("rank %d dump %d: OperatorEmitted %v wrapped, %v unwrapped", rank, dump, got.OperatorEmitted, want.OperatorEmitted)
			}
		}
	}
	if got, want := finalized.Load(), int64(2*2*3); got != want {
		t.Errorf("Finalize reported %d times, want %d (ranks x dumps x operators)", got, want)
	}
}
