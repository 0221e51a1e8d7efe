package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"predata/internal/ops"
	"predata/internal/staging"
	"strings"
	"testing"
)

func TestGenParticlesShape(t *testing.T) {
	arr := GenParticles(3, 100, 1)
	if arr.Dims[0] != 100 || arr.Dims[1] != AttrCount {
		t.Fatalf("dims %v", arr.Dims)
	}
	// All rows carry the writer rank, and the local ids form a permutation.
	seen := make(map[int]bool)
	for i := 0; i < 100; i++ {
		row := arr.Float64[i*AttrCount:]
		if row[ColRank] != 3 {
			t.Fatalf("row %d rank %g", i, row[ColRank])
		}
		seen[int(row[ColID])] = true
	}
	if len(seen) != 100 {
		t.Fatalf("%d distinct ids", len(seen))
	}
	// Deterministic per (rank, seed).
	again := GenParticles(3, 100, 1)
	for i := range arr.Float64 {
		if arr.Float64[i] != again.Float64[i] {
			t.Fatal("generator not deterministic")
		}
	}
	other := GenParticles(4, 100, 1)
	diff := false
	for i := range arr.Float64 {
		if arr.Float64[i] != other.Float64[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different ranks produced identical particles")
	}
}

// runFig executes a figure function and checks its output mentions the
// expected markers.
func runFig(t *testing.T, name string, f func() (string, error), markers ...string) {
	t.Helper()
	out, err := f()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, m := range markers {
		if !strings.Contains(out, m) {
			t.Errorf("%s output missing %q", name, m)
		}
	}
}

func TestFig7(t *testing.T) {
	runFig(t, "fig7", func() (string, error) {
		var buf bytes.Buffer
		err := Fig7(&buf, "all")
		return buf.String(), err
	}, "sorting operation", "histogram operation", "2D histogram operation",
		"functional mini-run", "16384")
}

func TestFig7UnknownOp(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig7(&buf, "bogus"); err == nil {
		t.Fatal("unknown operator accepted")
	}
}

func TestFig8(t *testing.T) {
	runFig(t, "fig8", func() (string, error) {
		var buf bytes.Buffer
		err := Fig8(&buf)
		return buf.String(), err
	}, "improvement", "CPU saving", "headlines at 16,384 cores", "paper: 8.6s")
}

func TestFig9(t *testing.T) {
	runFig(t, "fig9", func() (string, error) {
		var buf bytes.Buffer
		err := Fig9(&buf)
		return buf.String(), err
	}, "DataSpaces", "fetch", "paper: 20.3s")
}

func TestFig10(t *testing.T) {
	runFig(t, "fig10", func() (string, error) {
		var buf bytes.Buffer
		err := Fig10(&buf)
		return buf.String(), err
	}, "Pixie3D", "slowdown", "0.01%-0.7%")
}

func TestFig11(t *testing.T) {
	runFig(t, "fig11", func() (string, error) {
		var buf bytes.Buffer
		err := Fig11(&buf)
		return buf.String(), err
	}, "merged vs unmerged", "functional mini-run", "speedup")
}

func TestFig11FunctionalGap(t *testing.T) {
	merged, unmerged, chunks, err := Fig11Functional(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if chunks != 32 {
		t.Errorf("unmerged extents %d want 32", chunks)
	}
	if float64(unmerged) < 3*float64(merged) {
		t.Errorf("unmerged %v not much slower than merged %v", unmerged, merged)
	}
}

func TestOffline(t *testing.T) {
	runFig(t, "offline", func() (string, error) {
		var buf bytes.Buffer
		err := Offline(&buf)
		return buf.String(), err
	}, "offline", "in-transit", "65536", "monitoring")
}

func TestChaosFaultExperiment(t *testing.T) {
	runFig(t, "chaos", func() (string, error) {
		var buf bytes.Buffer
		err := Chaos(&buf)
		return buf.String(), err
	}, "fault-free", "transient", "crash", "lossless")
}

func TestOverloadExperiment(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_overload.json")
	runFig(t, "overload", func() (string, error) {
		var buf bytes.Buffer
		err := Overload(&buf, jsonPath)
		return buf.String(), err
	}, "unconstrained", "spill", "shed", "lossless")
	doc, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("overload json not written: %v", err)
	}
	var sum OverloadSummary
	if err := json.Unmarshal(doc, &sum); err != nil {
		t.Fatalf("overload json unparsable: %v", err)
	}
	if len(sum.Runs) != 4 {
		t.Fatalf("overload json has %d runs, want 4", len(sum.Runs))
	}
	if sum.Host.GoVersion == "" {
		t.Errorf("overload json carries no host fingerprint: %+v", sum.Host)
	}
	spill := sum.Runs[1]
	if spill.SpilledBytes == 0 || spill.PeakBytes == 0 {
		t.Errorf("spill leg missing trajectory: %+v", spill)
	}
	if shed := sum.Runs[2]; len(shed.ShedOperators) == 0 {
		t.Errorf("shed leg records no shed operators: %+v", shed)
	}
}

// TestChecksFinishRecordsFailures shows the collector's contract: a
// failing check still leaves a parseable JSON document on disk, and the
// returned error names every failed check, not only the first.
func TestChecksFinishRecordsFailures(t *testing.T) {
	var c checks
	c.check(false, "first invariant broke (%d)", 1)
	c.check(true, "held invariant")
	c.check(false, "second invariant broke (%s)", "x")
	jsonPath := filepath.Join(t.TempDir(), "BENCH_x.json")
	var out bytes.Buffer
	err := c.finish(&out, jsonPath, &OverloadSummary{Seed: 7, Runs: []OverloadRun{{Name: "leg"}}}, "all held")
	if err == nil {
		t.Fatal("failed checks returned no error")
	}
	for _, want := range []string{"first invariant broke (1)", "second invariant broke (x)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "held invariant") || strings.Contains(out.String(), "all held") {
		t.Errorf("a held check or the verdict leaked into a failing run: %q / %q", err, out.String())
	}
	doc, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("json not written when checks fail: %v", err)
	}
	var sum OverloadSummary
	if err := json.Unmarshal(doc, &sum); err != nil {
		t.Fatalf("json unparsable: %v", err)
	}
	if sum.Seed != 7 || len(sum.Runs) != 1 || sum.Runs[0].Name != "leg" {
		t.Errorf("json lost the experiment's numbers: %+v", sum)
	}
}

// TestBadFaultSeed checks that an unparsable PREDATA_FAULT_SEED fails
// every seeded experiment instead of quietly running seed 1.
func TestBadFaultSeed(t *testing.T) {
	t.Setenv("PREDATA_FAULT_SEED", "x")
	jsonPath := filepath.Join(t.TempDir(), "BENCH_x.json")
	for name, run := range map[string]func(io.Writer) error{
		"chaos":     Chaos,
		"overload":  func(w io.Writer) error { return Overload(w, jsonPath) },
		"trace":     func(w io.Writer) error { return Trace(w, jsonPath) },
		"elastic":   func(w io.Writer) error { return Elastic(w, jsonPath) },
		"adversary": func(w io.Writer) error { return Adversary(w, jsonPath) },
		"restart":   func(w io.Writer) error { return Restart(w, jsonPath) },
		"serve":     func(w io.Writer) error { return Serve(w, jsonPath) },
	} {
		if err := run(io.Discard); err == nil || !strings.Contains(err.Error(), "PREDATA_FAULT_SEED") {
			t.Errorf("%s: bad fault seed gave %v, want a PREDATA_FAULT_SEED error", name, err)
		}
	}
}

func TestElasticExperiment(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_elastic.json")
	runFig(t, "elastic", func() (string, error) {
		var buf bytes.Buffer
		err := Elastic(&buf, jsonPath)
		return buf.String(), err
	}, "static-small", "static-large", "elastic", "zero frames lost")
	doc, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("elastic json not written: %v", err)
	}
	var sum ElasticSummary
	if err := json.Unmarshal(doc, &sum); err != nil {
		t.Fatalf("elastic json unparsable: %v", err)
	}
	if len(sum.Runs) != 3 {
		t.Fatalf("elastic json has %d runs, want 3", len(sum.Runs))
	}
	small, large, el := sum.Runs[0], sum.Runs[1], sum.Runs[2]
	// The acceptance inequalities Elastic itself enforces, re-checked from
	// the emitted document.
	if el.SpilledBytes+el.PassedBytes >= small.SpilledBytes+small.PassedBytes {
		t.Errorf("elastic overflow %d not below static-small %d",
			el.SpilledBytes+el.PassedBytes, small.SpilledBytes+small.PassedBytes)
	}
	if el.RankDumps >= large.RankDumps {
		t.Errorf("elastic rank-dumps %d not below static-large %d", el.RankDumps, large.RankDumps)
	}
	if el.Grows == 0 || el.MaxActive <= el.MinActive {
		t.Errorf("elastic leg never scaled: %+v", el)
	}
	for _, r := range sum.Runs {
		if r.DataLoss != 0 {
			t.Errorf("%s lost %d frames", r.Name, r.DataLoss)
		}
	}
}

func TestAdversaryExperiment(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_adversary.json")
	runFig(t, "adversary", func() (string, error) {
		var buf bytes.Buffer
		err := Adversary(&buf, jsonPath)
		return buf.String(), err
	}, "fault-free", "wire corrupt", "partition", "straggler", "no silent loss")
	doc, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("adversary json not written: %v", err)
	}
	var sum AdversarySummary
	if err := json.Unmarshal(doc, &sum); err != nil {
		t.Fatalf("adversary json unparsable: %v", err)
	}
	if len(sum.Runs) != 5 {
		t.Fatalf("adversary json has %d runs, want 5", len(sum.Runs))
	}
	// The acceptance inequalities Adversary itself enforces, re-checked
	// from the emitted document.
	wire, source, part, straggler := sum.Runs[1], sum.Runs[2], sum.Runs[3], sum.Runs[4]
	if wire.CorruptPulls == 0 || wire.DataLoss != 0 {
		t.Errorf("wire leg did not heal corruption losslessly: %+v", wire)
	}
	if source.CorruptDrops == 0 || source.DegradedDumps == 0 || source.DataLoss == 0 {
		t.Errorf("source leg did not shed loudly: %+v", source)
	}
	if part.Heals != 1 || part.FencedDumps == 0 || part.DataLoss != 0 {
		t.Errorf("partition leg did not fence and heal lossless: %+v", part)
	}
	if straggler.HedgedPulls == 0 || straggler.DataLoss != 0 {
		t.Errorf("straggler leg did not hedge losslessly: %+v", straggler)
	}
}

func TestServeExperiment(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_serve.json")
	runFig(t, "serve", func() (string, error) {
		var buf bytes.Buffer
		err := Serve(&buf, jsonPath)
		return buf.String(), err
	}, "single-tenant", "fair-share-4", "query-storm-16", "cache on repeated regions", "verified isolation")
	doc, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("serve json not written: %v", err)
	}
	var sum ServeSummary
	if err := json.Unmarshal(doc, &sum); err != nil {
		t.Fatalf("serve json unparsable: %v", err)
	}
	if len(sum.Runs) != 3 {
		t.Fatalf("serve json has %d runs, want 3", len(sum.Runs))
	}
	// The acceptance criteria Serve itself enforces, re-checked from the
	// emitted document.
	if sum.Cache.Speedup < 2 {
		t.Errorf("cache speedup %.2fx below 2x", sum.Cache.Speedup)
	}
	for _, r := range sum.Runs {
		if r.TenantChecks < r.Tenants {
			t.Errorf("%s: %d isolation checks for %d tenants", r.Name, r.TenantChecks, r.Tenants)
		}
		if r.CacheChecks == 0 || r.CacheHits == 0 {
			t.Errorf("%s: cache never exercised (%d checks, %d hits)", r.Name, r.CacheChecks, r.CacheHits)
		}
		if r.Queries == 0 || r.QueryP99US < r.QueryP50US {
			t.Errorf("%s: implausible query figures %+v", r.Name, r)
		}
	}
	if sum.Runs[2].Tenants != 16 {
		t.Errorf("storm leg has %d tenants, want 16", sum.Runs[2].Tenants)
	}
}

func TestAblationScheduling(t *testing.T) {
	runFig(t, "scheduling", func() (string, error) {
		var buf bytes.Buffer
		err := AblationScheduling(&buf)
		return buf.String(), err
	}, "scheduled", "unscheduled")
}

func TestAblationCombine(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationCombine(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "shuffle-volume reduction") {
		t.Errorf("output missing reduction factor:\n%s", out)
	}
}

func TestAblationRatio(t *testing.T) {
	runFig(t, "ratio", func() (string, error) {
		var buf bytes.Buffer
		err := AblationRatio(&buf)
		return buf.String(), err
	}, "64:1", "256:1", "fits 120s")
}

func TestAblationBitmap(t *testing.T) {
	runFig(t, "bitmap", func() (string, error) {
		var buf bytes.Buffer
		err := AblationBitmap(&buf)
		return buf.String(), err
	}, "indexed", "full scan")
}

func TestMiniPipelineCounts(t *testing.T) {
	res, wall, err := MiniPipeline(4, 2, 100, func(int) []staging.Operator {
		op, err := ops.NewHistogramOperator(ops.HistogramConfig{
			Var: "p", Columns: []int{ColZeta}, Bins: 8, AggRanges: true,
		})
		if err != nil {
			t.Error(err)
			return nil
		}
		return []staging.Operator{op}
	})
	if err != nil {
		t.Fatal(err)
	}
	if wall <= 0 {
		t.Errorf("wall %v", wall)
	}
	var total int64
	for rank := 0; rank < 2; rank++ {
		hists := res.StagingResults[rank][0].PerOperator["histogram"]["histograms"].(map[int][]int64)
		for _, counts := range hists {
			for _, c := range counts {
				total += c
			}
		}
	}
	if total != 400 {
		t.Errorf("histogram total %d want 400", total)
	}
}

func TestDESCrossCheck(t *testing.T) {
	runFig(t, "des", func() (string, error) {
		var buf bytes.Buffer
		err := DESCrossCheck(&buf)
		return buf.String(), err
	}, "discrete-event", "16384", "staging wins")
}

func TestAblationFunctionalScaling(t *testing.T) {
	runFig(t, "scaling", func() (string, error) {
		var buf bytes.Buffer
		err := AblationFunctionalScaling(&buf)
		return buf.String(), err
	}, "weak-scaling", "particles/rank", "map time")
}
