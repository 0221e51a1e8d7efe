package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"predata/internal/dataspaces"
	"predata/internal/queryapp"
	"predata/internal/serve"
	"predata/internal/trace"
)

// The serve experiment's shape: every tenant streams serveVersions
// dumps of serveRows x serveCols cells into its own namespace with a
// sliding window of serveWindow resident versions, then a concurrent
// repeated-region query workload sweeps the freshest version — the
// multi-tenant service scenario of DESIGN.md §15.
const (
	serveRows     = 32
	serveCols     = 256
	serveVersions = 6
	serveWindow   = 2
	serveCacheCap = 1024
	// Query workload per tenant: cores x queries disjoint slices of the
	// last version, re-swept serveRounds times (rounds past the first
	// re-query identical regions — the cache's target workload).
	serveQueryCores  = 2
	serveQueryCount  = 4
	serveQueryRounds = 4
)

// serveVersionBytes is one ingested version's payload.
const serveVersionBytes = serveRows * serveCols * 8

// serveCtx bounds one leg's ingest phase; a wedged admission queue
// fails the leg instead of hanging the bench.
func serveCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 2*time.Minute)
}

// ServeRun is one leg of the multi-tenant serve experiment.
type ServeRun struct {
	Name    string `json:"name"`
	Tenants int    `json:"tenants"`
	// Ingest phase: sustained throughput across all tenant streams.
	IngestedMB   float64 `json:"ingested_mb"`
	IngestWallMS int64   `json:"ingest_wall_ms"`
	IngestMBps   float64 `json:"ingest_mbps"`
	// Query phase: per-query latency under concurrent tenant traffic —
	// the median of per-tenant p50s and the worst per-tenant p99.
	Queries    int64   `json:"queries"`
	QueryP50US float64 `json:"query_p50_us"`
	QueryP99US float64 `json:"query_p99_us"`
	// Cache and admission activity.
	CacheHits    int64   `json:"cache_hits"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	Waits        int64   `json:"admission_waits"`
	// Trace verification coverage: objects checked for tenant isolation
	// and hits checked for cache coherence. Zero leakage is implied by
	// the experiment passing — a Verify failure fails it.
	TenantChecks int `json:"tenant_checks"`
	CacheChecks  int `json:"cache_checks"`
}

// ServeCacheComparison is the repeated-region workload measured with
// the result cache on and off; Speedup is uncached p50 over cached p50.
type ServeCacheComparison struct {
	CachedP50US   float64 `json:"cached_p50_us"`
	UncachedP50US float64 `json:"uncached_p50_us"`
	Speedup       float64 `json:"speedup"`
}

// ServeSummary is the JSON document the serve experiment emits.
type ServeSummary struct {
	hosted
	Seed           int64                `json:"seed"`
	Versions       int                  `json:"versions"`
	RowsPerVersion int                  `json:"rows_per_version"`
	Runs           []ServeRun           `json:"runs"`
	Cache          ServeCacheComparison `json:"cache_comparison"`
}

// serveLeg runs one daemon with the given tenant count: concurrent
// ingest streams (sliding resident window), then a concurrent query
// sweep per tenant. Exact conservation and a verified trace covering
// every tenant are checked into c.
func serveLeg(c *checks, name string, tenants, cacheEntries int, seed int64) (ServeRun, error) {
	row := ServeRun{Name: name, Tenants: tenants}
	rec := trace.New(trace.Config{Shards: 8, ShardCapacity: 1 << 14})
	d, err := serve.Open(serve.Config{
		Servers:       2,
		Domain:        dataspaces.Domain{Dims: []uint64{serveRows, serveCols}, BlockSize: []uint64{16, 16}},
		CapacityBytes: int64(tenants*serveWindow+2) * serveVersionBytes,
		CacheEntries:  cacheEntries,
		Tracer:        rec,
	})
	if err != nil {
		return row, fmt.Errorf("bench: %s: %w", name, err)
	}
	defer d.Close()

	sessions := make([]*serve.Session, tenants)
	for i := range sessions {
		s, err := d.Join(fmt.Sprintf("sim%02d", i), 1+i%3)
		if err != nil {
			return row, fmt.Errorf("bench: %s: %w", name, err)
		}
		sessions[i] = s
	}

	// Ingest phase: every tenant streams its versions concurrently,
	// evicting past the resident window so the pot stays live.
	ctx, cancel := serveCtx()
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, tenants)
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *serve.Session) {
			defer wg.Done()
			data := make([]float64, serveRows*serveCols)
			for v := 0; v < serveVersions; v++ {
				stamp := float64(seed%1000)*1e6 + float64(i)*1e3 + float64(v)
				for j := range data {
					data[j] = stamp
				}
				if err := s.Ingest(ctx, "field", v, []uint64{0, 0}, []uint64{serveRows, serveCols}, data); err != nil {
					errc <- fmt.Errorf("bench: %s tenant %d version %d: %w", name, i, v, err)
					return
				}
				if v >= serveWindow {
					if err := s.EvictVersion("field", v-serveWindow); err != nil {
						errc <- err
						return
					}
				}
			}
		}(i, s)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		return row, err
	}
	ingestWall := time.Since(start)
	row.IngestedMB = float64(tenants) * serveVersions * serveVersionBytes / (1 << 20)
	row.IngestWallMS = ingestWall.Milliseconds()
	if s := ingestWall.Seconds(); s > 0 {
		row.IngestMBps = row.IngestedMB / s
	}

	// Query phase: every tenant sweeps its freshest version in parallel.
	results := make([]queryapp.TenantResult, tenants)
	qerrc := make(chan error, tenants)
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *serve.Session) {
			defer wg.Done()
			res, err := queryapp.RunTenant(queryapp.TenantConfig{
				Session: s,
				Object:  "field",
				Version: serveVersions - 1,
				Domain:  []uint64{serveRows, serveCols},
				Cores:   serveQueryCores,
				Queries: serveQueryCount,
				Rounds:  serveQueryRounds,
			})
			if err != nil {
				qerrc <- fmt.Errorf("bench: %s tenant %d queries: %w", name, i, err)
				return
			}
			results[i] = res
		}(i, s)
	}
	wg.Wait()
	close(qerrc)
	for err := range qerrc {
		return row, err
	}
	p50s := make([]float64, 0, tenants)
	for _, r := range results {
		p50s = append(p50s, r.P50Seconds*1e6)
		if p99 := r.P99Seconds * 1e6; p99 > row.QueryP99US {
			row.QueryP99US = p99
		}
		row.Queries += r.Queries + r.Reduces
	}
	sort.Float64s(p50s)
	row.QueryP50US = p50s[len(p50s)/2]

	// Exact per-tenant frame conservation — zero loss, zero invention.
	for i, s := range sessions {
		st, err := s.Stats()
		if err != nil {
			return row, err
		}
		c.check(st.Ingests == serveVersions && st.IngestedCells == int64(serveVersions)*serveRows*serveCols,
			"%s tenant %d: %d ingests / %d cells, want %d / %d — frames lost",
			name, i, st.Ingests, st.IngestedCells, serveVersions, int64(serveVersions)*serveRows*serveCols)
		row.Waits += st.Admission.Waits
	}
	cs := d.CacheStats()
	row.CacheHits = cs.Hits
	if total := cs.Hits + cs.Misses; total > 0 {
		row.CacheHitRate = float64(cs.Hits) / float64(total)
	}

	// Zero cross-tenant leakage: the recording must verify, and must
	// actually have covered every tenant's object.
	if rep, err := trace.Verify(rec.Snapshot()); err != nil {
		c.check(false, "%s trace: %w", name, err)
	} else {
		c.check(rep.TenantChecks >= tenants, "%s: verify covered %d objects, want >= %d", name, rep.TenantChecks, tenants)
		row.TenantChecks = rep.TenantChecks
		row.CacheChecks = rep.CacheChecks
	}
	return row, nil
}

// Serve runs the multi-tenant streaming-service experiment: sustained
// ingest with concurrent query sweeps under 1, 4, and 16 tenants, every
// leg trace-verified for tenant isolation and cache coherence with
// exact frame conservation, plus a cache on/off comparison on the
// repeated-region workload. When jsonPath is non-empty the summary is
// also written there as JSON.
func Serve(w io.Writer, jsonPath string) error {
	seed, err := faultSeed()
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("Serve — multi-tenant streaming staging with query traffic (seed %d)", seed))

	legs := []struct {
		name    string
		tenants int
	}{
		{"single-tenant", 1},
		{"fair-share-4", 4},
		{"query-storm-16", 16},
	}
	var c checks
	rows := make([]ServeRun, 0, len(legs))
	for _, leg := range legs {
		row, err := serveLeg(&c, leg.name, leg.tenants, serveCacheCap, seed)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}

	// The cache comparison re-runs the single-tenant repeated-region
	// workload with the cache disabled.
	uncached, err := serveLeg(&c, "single-tenant-nocache", 1, 0, seed)
	if err != nil {
		return err
	}
	cmp := ServeCacheComparison{
		CachedP50US:   rows[0].QueryP50US,
		UncachedP50US: uncached.QueryP50US,
	}
	if cmp.CachedP50US > 0 {
		cmp.Speedup = cmp.UncachedP50US / cmp.CachedP50US
	}

	fmt.Fprintf(w, "%-16s %8s %9s %10s %8s %10s %10s %8s %7s %7s\n",
		"run", "tenants", "ingestMB", "ingMB/s", "queries", "qP50us", "qP99us", "hitRate", "waits", "checks")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %8d %9.2f %10.1f %8d %10.2f %10.2f %8.2f %7d %7d\n",
			r.Name, r.Tenants, r.IngestedMB, r.IngestMBps, r.Queries,
			r.QueryP50US, r.QueryP99US, r.CacheHitRate, r.Waits, r.TenantChecks+r.CacheChecks)
	}
	fmt.Fprintf(w, "\ncache on repeated regions: p50 %.2fus cached vs %.2fus uncached (%.1fx)\n",
		cmp.CachedP50US, cmp.UncachedP50US, cmp.Speedup)

	// The invariants the experiment exists to demonstrate. Conservation
	// and trace verification are checked inside each leg; here the cache
	// must earn its keep on the repeated-region workload.
	c.check(cmp.Speedup >= 2, "cache speedup %.2fx below 2x on repeated regions (cached %.2fus, uncached %.2fus)",
		cmp.Speedup, cmp.CachedP50US, cmp.UncachedP50US)
	for _, r := range rows {
		c.check(r.CacheChecks != 0, "%s: no cache-coherence checks in the verified trace", r.Name)
	}
	return c.finish(w, jsonPath, &ServeSummary{
		Seed: seed, Versions: serveVersions, RowsPerVersion: serveRows, Runs: rows, Cache: cmp,
	}, "all legs conserve every tenant's frames with verified isolation; the result cache beats uncached reads >=2x on repeated regions")
}
