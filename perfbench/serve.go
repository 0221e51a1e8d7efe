package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"predata/internal/dataspaces"
	"predata/internal/serve"
	"predata/internal/trace"
)

// The serve-mixed workload: one daemon with 2 DataSpaces shards and a
// 1024-entry result cache serves 4 tenants with weights 1/2/3/1. One
// goroutine streams 64x1024 float64 versions (512 KiB) round-robin
// across the tenants, keeping a 3-version window per tenant and
// evicting older versions. One closed-loop goroutine queries each
// tenant's freshest version: Zipf-skewed (s = 1.2) Gets over 32 regions
// of 16x128 cells, every fourth query a ReduceSum. Writes run beside
// reads on one shared space, so p50 measures the cache and p99 the miss
// path contending with Put. One round is one daemon; a run splits its
// time evenly over serveRounds rounds (twice as many when traced).
const (
	serveTenants      = 4
	serveRows         = 64
	serveCols         = 1024
	serveCells        = serveRows * serveCols
	serveVersionBytes = serveCells * 8
	serveWindow       = 3
	serveRegionRows   = 16
	serveRegionCols   = 128
	serveRegionGrid   = serveCols / serveRegionCols // regions per row band
	serveRegions      = (serveRows / serveRegionRows) * serveRegionGrid
	serveCacheEntries = 1024
	serveZipfS        = 1.2
	servePool         = 16      // distinct payloads, cycled by (tenant, version)
	serveQueryPlan    = 1 << 18 // pregenerated region choices, cycled
	serveObject       = "field"
	serveRounds       = 8 // untraced rounds per run; traced runs add as many traced ones
	serveRoundTimeout = 60 * time.Second
	// serveTracedQueries caps a traced round so its recording (at most
	// two events per query) fits the recorder's rings whatever the
	// query rate; Verify refuses a recording that lost events.
	serveTracedQueries = 20_000
)

var serveWeights = [serveTenants]int{1, 2, 3, 1}

// serveInputs are the generated payloads, their exact region sums, and
// the seeded query plan.
type serveInputs struct {
	pool    [servePool][]float64
	sums    [servePool][serveRegions]float64
	regions []uint8 // Zipf-skewed region index per query
}

func genServeInputs(seed int64) *serveInputs {
	in := &serveInputs{}
	rng := rand.New(rand.NewSource(seed))
	for i := range in.pool {
		p := make([]float64, serveCells)
		for c := range p {
			// Multiples of 2^-10 below 1024: every region sum is exact in
			// float64 whatever order the space adds the cells in.
			p[c] = float64(rng.Intn(1<<20)) / 1024
		}
		in.pool[i] = p
		for reg := 0; reg < serveRegions; reg++ {
			in.sums[i][reg] = regionSum(p, reg)
		}
	}
	// The most popular region is a seeded pick, not always region 0.
	perm := rng.Perm(serveRegions)
	zipf := rand.NewZipf(rng, serveZipfS, 1, serveRegions-1)
	in.regions = make([]uint8, serveQueryPlan)
	for i := range in.regions {
		in.regions[i] = uint8(perm[zipf.Uint64()])
	}
	return in
}

func (in *serveInputs) payload(tenant, version int) int {
	return (tenant*5 + version) % servePool
}

func regionBounds(reg int) (lb, ub []uint64) {
	r0 := uint64(reg/serveRegionGrid) * serveRegionRows
	c0 := uint64(reg%serveRegionGrid) * serveRegionCols
	return []uint64{r0, c0}, []uint64{r0 + serveRegionRows, c0 + serveRegionCols}
}

func regionSum(p []float64, reg int) float64 {
	lb, _ := regionBounds(reg)
	s := 0.0
	for r := 0; r < serveRegionRows; r++ {
		row := (int(lb[0])+r)*serveCols + int(lb[1])
		for _, x := range p[row : row+serveRegionCols] {
			s += x
		}
	}
	return s
}

func checkRegion(got, p []float64, reg int) error {
	if len(got) != serveRegionRows*serveRegionCols {
		return fmt.Errorf("region %d: %d cells, want %d", reg, len(got), serveRegionRows*serveRegionCols)
	}
	lb, _ := regionBounds(reg)
	for r := 0; r < serveRegionRows; r++ {
		row := (int(lb[0])+r)*serveCols + int(lb[1])
		if !slices.Equal(got[r*serveRegionCols:(r+1)*serveRegionCols], p[row:row+serveRegionCols]) {
			return fmt.Errorf("region %d row %d differs from the ingested payload", reg, r)
		}
	}
	return nil
}

// versionBoard publishes each tenant's freshest version to the query
// goroutine and keeps the ingest goroutine from evicting a version a
// query is reading.
type versionBoard struct {
	mu     sync.Mutex
	cond   *sync.Cond
	latest [serveTenants]int
	pinned [serveTenants]int
}

func newVersionBoard() *versionBoard {
	b := &versionBoard{}
	b.cond = sync.NewCond(&b.mu)
	for t := range b.pinned {
		b.pinned[t] = -1
	}
	return b
}

func (b *versionBoard) publish(t, v int) {
	b.mu.Lock()
	b.latest[t] = v
	b.mu.Unlock()
}

func (b *versionBoard) pin(t int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pinned[t] = b.latest[t]
	return b.latest[t]
}

func (b *versionBoard) unpin(t int) {
	b.mu.Lock()
	b.pinned[t] = -1
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *versionBoard) waitUnpinned(t, v int) {
	b.mu.Lock()
	for b.pinned[t] == v {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// serveRound is one daemon's measurements.
type serveRound struct {
	traced      bool
	setup       time.Duration
	steadyWall  time.Duration
	allocBytes  uint64
	ingestBytes float64
	ops         int
	ingestUs    []float64
	queryUs     []float64
	hitUs       []float64 // probed rounds only: queries the cache answered
	missUs      []float64
	admitWaits  int64
	admitWait   time.Duration
	peakInUse   int64
	recDropped  int64
}

// runServeRound runs one daemon for dur after its warm-up. traced turns
// the flight recorder on; probe splits queries into cache hits and
// misses by the CacheStats delta around each call. Per-layer runs probe
// in every round, so the untraced rounds they compare the traced ones
// against carry the same probes.
func runServeRound(in *serveInputs, round int, dur time.Duration, traced, probe bool, r *report) *serveRound {
	sr := &serveRound{traced: traced}
	var tr *trace.Recorder
	if traced {
		tr = trace.New(trace.Config{Shards: 16, ShardCapacity: 1 << 12})
	}
	ctx, cancel := context.WithTimeout(context.Background(), serveRoundTimeout)
	defer cancel()

	start := time.Now()
	d, err := serve.Open(serve.Config{
		Servers:      2,
		MaxServers:   2,
		Domain:       dataspaces.Domain{Dims: []uint64{serveRows, serveCols}},
		CacheEntries: serveCacheEntries,
		Tracer:       tr,
	})
	if !r.check("daemon opens", err) {
		return sr
	}
	defer d.Close()
	var sess [serveTenants]*serve.Session
	for t := range sess {
		if sess[t], err = d.Join(fmt.Sprintf("sim%d", t), serveWeights[t]); !r.check("tenant joins", err) {
			return sr
		}
	}
	full := []uint64{serveRows, serveCols}
	origin := []uint64{0, 0}
	board := newVersionBoard()
	var ingested, evicted, queried [serveTenants]int
	var opErr error
	// Warm-up: fill every tenant's window.
	for v := 0; v < serveWindow; v++ {
		for t := range sess {
			opErr = errors.Join(opErr, sess[t].Ingest(ctx, serveObject, v, origin, full, in.pool[in.payload(t, v)]))
			ingested[t]++
			board.publish(t, v)
		}
	}
	r.attempted += serveWindow * serveTenants
	if !r.check("warm-up ingests", opErr) {
		r.failed += serveWindow * serveTenants
		return sr
	}
	sr.setup = time.Since(start)

	var (
		wg                       sync.WaitGroup
		ingestFailed, queryFails int64
		ingestErr, queryErr      error
		stop                     atomic.Bool
	)
	a0 := totalAlloc()
	steadyStart := time.Now()
	deadline := steadyStart.Add(dur)
	wg.Add(2)
	go func() {
		defer wg.Done()
		next := [serveTenants]int{}
		for t := range next {
			next[t] = serveWindow
		}
		for i := 0; !stop.Load() && time.Now().Before(deadline); i++ {
			t := i % serveTenants
			v := next[t]
			next[t]++
			t0 := time.Now()
			err := sess[t].Ingest(ctx, serveObject, v, origin, full, in.pool[in.payload(t, v)])
			sr.ingestUs = append(sr.ingestUs, us(time.Since(t0)))
			ingested[t]++
			if err != nil {
				ingestFailed++
				ingestErr = errors.Join(ingestErr, err)
				break
			}
			board.publish(t, v)
			old := v - serveWindow
			board.waitUnpinned(t, old)
			if err := sess[t].EvictVersion(serveObject, old); err != nil {
				ingestErr = errors.Join(ingestErr, err)
				break
			}
			evicted[t]++
		}
	}()
	go func() {
		defer wg.Done()
		for k := 0; time.Now().Before(deadline); k++ {
			if traced && k == serveTracedQueries {
				stop.Store(true)
				break
			}
			t := k % serveTenants
			reg := int(in.regions[(round*7919+k)%serveQueryPlan])
			reduce := (k/serveTenants)%4 == 3
			lb, ub := regionBounds(reg)
			v := board.pin(t)
			var hits0 int64
			if probe {
				hits0 = d.CacheStats().Hits
			}
			var data []float64
			var sum float64
			var err error
			t0 := time.Now()
			if reduce {
				sum, err = sess[t].Reduce(serveObject, v, lb, ub, dataspaces.ReduceSum)
			} else {
				data, err = sess[t].Query(serveObject, v, lb, ub)
			}
			lat := us(time.Since(t0))
			board.unpin(t)
			sr.queryUs = append(sr.queryUs, lat)
			if probe {
				if d.CacheStats().Hits > hits0 {
					sr.hitUs = append(sr.hitUs, lat)
				} else {
					sr.missUs = append(sr.missUs, lat)
				}
			}
			queried[t]++
			p := in.payload(t, v)
			switch {
			case err != nil:
			case reduce && sum != in.sums[p][reg]:
				err = fmt.Errorf("tenant %d version %d region %d: sum %v, want %v", t, v, reg, sum, in.sums[p][reg])
			case !reduce:
				err = checkRegion(data, in.pool[p], reg)
			}
			if err != nil {
				queryFails++
				if queryErr == nil {
					queryErr = err
				}
			}
		}
	}()
	wg.Wait()
	sr.steadyWall = time.Since(steadyStart)
	sr.allocBytes = totalAlloc() - a0

	steadyIngests := len(sr.ingestUs)
	sr.ops = steadyIngests + len(sr.queryUs)
	sr.ingestBytes = float64(steadyIngests) * serveVersionBytes
	r.attempted += int64(sr.ops)
	r.failed += ingestFailed + queryFails
	r.check("ingest and evict succeed", ingestErr)
	r.check("every answer equals the seeded value", queryErr)

	// Frame conservation: each tenant's daemon-side ledger matches what
	// this round sent, and exactly the window's versions stay resident.
	var consErr error
	for t, s := range sess {
		st, err := s.Stats()
		if err != nil {
			consErr = errors.Join(consErr, err)
			continue
		}
		resident := s.Versions(serveObject)
		var want []int
		for v := ingested[t] - serveWindow; v < ingested[t]; v++ {
			want = append(want, v)
		}
		if st.Ingests != int64(ingested[t]) || st.IngestedCells != int64(ingested[t])*serveCells ||
			st.Evictions != int64(evicted[t]) || st.Queries+st.Reduces != int64(queried[t]) ||
			st.ResidentBytes != serveWindow*serveVersionBytes || !slices.Equal(resident, want) {
			consErr = errors.Join(consErr, fmt.Errorf("tenant %d: stats %+v resident %v; sent %d ingests, %d evictions, %d queries, want resident %v",
				t, st, resident, ingested[t], evicted[t], queried[t], want))
		}
		sr.admitWaits += st.Admission.Waits
		sr.admitWait += st.Admission.WaitTime
		sr.peakInUse += st.Admission.PeakInUseBytes
	}
	r.check("tenant frames conserved", consErr)
	if traced {
		rec := tr.Snapshot()
		sr.recDropped = rec.Dropped
		r.check("trace records every event", dropErr(rec.Dropped))
		_, verr := trace.Verify(rec)
		r.check("trace.Verify", verr)
	}
	return sr
}

// runServe runs serveRounds untraced daemons, or as many untraced and
// traced ones alternately, splitting the run's time evenly.
func runServe(cfg runConfig) *report {
	r := newReport()
	in := genServeInputs(cfg.seed)
	n := serveRounds
	if cfg.traced {
		n *= 2
	}
	dur := cfg.budget / time.Duration(n)
	var rounds []*serveRound
	for i := 0; i < n; i++ {
		rounds = append(rounds, runServeRound(in, i, dur, cfg.traced && i%2 == 1, cfg.traced, r))
		runtime.GC() // start every round from the same heap state
	}
	if cfg.traced {
		serveLayers(in, rounds, r)
	} else {
		serveEndToEnd(rounds, r)
	}
	return r
}

func serveEndToEnd(rounds []*serveRound, r *report) {
	var setups, goodput, lat, ingest []float64
	var bytes, alloc float64
	for _, sr := range rounds {
		if sr.steadyWall == 0 {
			continue
		}
		setups = append(setups, sr.setup.Seconds())
		goodput = append(goodput, sr.ingestBytes/1e6/sr.steadyWall.Seconds())
		lat = append(lat, sr.queryUs...)
		ingest = append(ingest, sr.ingestUs...)
		bytes += sr.ingestBytes
		alloc += float64(sr.allocBytes)
	}
	if bytes > 0 {
		r.set("setup_s", median(setups), fmt.Sprintf("median of %d rounds: serve.Open to the end of %d warm-up versions per tenant", len(setups), serveWindow))
		r.set("goodput_mbps", median(goodput), fmt.Sprintf("ingest_mbps: %d steady versions of %d B, median of %d rounds", len(ingest), serveVersionBytes, len(goodput)))
		r.set("alloc_per_input_byte", alloc/bytes, "TotalAlloc delta over the steady window / ingested bytes")
	}
	if len(lat) > 0 {
		r.set("latency_p50_ms", median(lat)/1e3, fmt.Sprintf("query_p50: %d Gets and Reduces", len(lat)))
	}
	if v, ok := percentile(lat, 0.99); ok {
		r.set("latency_tail_ms", v/1e3, fmt.Sprintf("query_p99 over %d queries", len(lat)))
	} else {
		r.notes["latency_tail_ms"] = fmt.Sprintf("query_p99 needs %d+ queries, have %d", 100*minBeyond, len(lat))
	}
	if len(ingest) > 0 {
		r.set("write_visible_p50_us", median(ingest), fmt.Sprintf("Session.Ingest duration, %d steady versions", len(ingest)))
	}
}

func serveLayers(in *serveInputs, rounds []*serveRound, r *report) {
	r.zeroLayers()
	var plain, traced, ingest, hit, miss []float64
	var waits, dropped, peak, ingests int64
	var wait time.Duration
	for _, sr := range rounds {
		if sr.steadyWall == 0 || sr.ops == 0 {
			continue
		}
		perOp := sr.steadyWall.Seconds() / float64(sr.ops)
		if !sr.traced {
			plain = append(plain, perOp)
			continue
		}
		traced = append(traced, perOp)
		ingest = append(ingest, sr.ingestUs...)
		hit = append(hit, sr.hitUs...)
		miss = append(miss, sr.missUs...)
		waits += sr.admitWaits
		wait += sr.admitWait
		peak = max(peak, sr.peakInUse)
		dropped += sr.recDropped
		ingests += int64(len(sr.ingestUs))
	}
	r.set("trace.dropped", float64(dropped), "events lost by the flight recorder over all traced rounds")
	if len(plain) > 0 && len(traced) > 0 {
		r.set("trace.overhead_frac", median(traced)/median(plain)-1,
			fmt.Sprintf("steady wall per operation, median of %d traced / %d untraced rounds, minus 1", len(traced), len(plain)))
	}
	if len(traced) == 0 {
		return
	}
	r.set("serve.ingest_us", median(ingest), "Session.Ingest duration")
	r.set("serve.query_hit_us", median(hit), fmt.Sprintf("queries the cache answered (%d), split by the CacheStats delta", len(hit)))
	r.set("serve.query_miss_us", median(miss), fmt.Sprintf("queries the space answered (%d)", len(miss)))
	if n := len(hit) + len(miss); n > 0 {
		r.set("serve.cache_hit_ratio", float64(len(hit))/float64(n), "queries the cache answered / all queries")
	}
	r.set("flowctl.admission_waits", float64(waits), "fair-share admissions that queued, all tenants")
	if ingests > 0 {
		r.set("flowctl.throttle_wait_ms", ms(wait)/float64(ingests), "fair-share admission wait per ingest")
	}
	r.set("flowctl.peak_mb", float64(peak)/1e6, "sum over tenants of peak admitted bytes")
	replaySpace(in, r)
}

// replaySpace replays the workload's versions and queries against a
// standalone dataspaces.Space with the daemon's domain and shard count.
func replaySpace(in *serveInputs, r *report) {
	sp, err := dataspaces.New(dataspaces.Config{Servers: 2, Domain: dataspaces.Domain{Dims: []uint64{serveRows, serveCols}}})
	if !r.check("dataspaces replay", err) {
		return
	}
	full := []uint64{serveRows, serveCols}
	origin := []uint64{0, 0}
	var putMBps, getUs []float64
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	for pass := 0; pass < replayPasses; pass++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i, p := range in.pool {
			err = errors.Join(err, sp.Put(serveObject, pass*servePool+i, origin, full, p))
		}
		putMBps = append(putMBps, servePool*serveVersionBytes/1e6/time.Since(t0).Seconds())
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		for q := 0; q < 2000; q++ {
			reg := int(in.regions[(pass*2000+q)%serveQueryPlan])
			i := q % servePool
			lb, ub := regionBounds(reg)
			t0 := time.Now()
			data, gerr := sp.Get(serveObject, pass*servePool+i, lb, ub)
			getUs = append(getUs, us(time.Since(t0)))
			if gerr == nil {
				gerr = checkRegion(data, in.pool[i], reg)
			}
			err = errors.Join(err, gerr)
		}
		for i := range in.pool {
			sp.EvictVersion(serveObject, pass*servePool+i)
		}
	}
	r.check("dataspaces replay", err)
	r.set("dataspaces.put_mbps", median(putMBps), "replay of Space.Put on the workload's versions")
	r.set("dataspaces.get_us", median(getUs), "replay of Space.Get on the workload's query regions")
	r.set("dataspaces.put_allocs_per_cell", float64(mallocs)/float64(replayPasses*servePool*serveCells), "Mallocs during Put / cells put")
}
