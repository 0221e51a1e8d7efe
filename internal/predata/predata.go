// Package predata is the core PreDatA middleware: it wires the compute-node
// runtime (Stage 1 of the paper's data flow) to the staging-area runtime
// (Stages 2–4) over the fabric.
//
// Compute side (Client): when the application performs I/O, the client runs
// the optional PartialCalculate first pass on the local output, packs the
// output into a contiguous FFS buffer (the packed partial data chunk),
// exposes it for RDMA pull, and sends a data-fetch request — with the small
// partial result piggybacked — to the staging node chosen by Route. The
// application then resumes computation; only packing and request dispatch
// are visible I/O time.
//
// Staging side (Server): each staging rank gathers fetch requests from the
// compute ranks it serves, exchanges the piggybacked partials across the
// staging area, applies the user Aggregate function (global sizes, offsets,
// prefix sums, min/max — Stage 2), then pulls and decodes the packed chunks
// one by one, streaming them through the staging engine (Stages 3–4).
package predata

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"predata/internal/evpath"
	"predata/internal/fabric"
	"predata/internal/faults"
	"predata/internal/ffs"
	"predata/internal/flowctl"
	"predata/internal/mpi"
	"predata/internal/staging"
	"predata/internal/trace"
	"predata/internal/wal"
)

// FetchRequest is the control message a compute rank sends to its staging
// rank when a dump's data is ready to pull.
type FetchRequest struct {
	Handle     fabric.Handle
	WriterRank int
	Timestep   int64
	Bytes      int
	Partial    any // result of PartialCalculate, piggybacked on the request
}

// RankPartial pairs a compute rank with its piggybacked partial result.
type RankPartial struct {
	Rank    int
	Partial any
}

// RouteFunc chooses the staging index in [0, numStaging) that serves a
// compute writer rank.
type RouteFunc func(writerRank, numCompute, numStaging int) int

// DefaultRoute assigns contiguous blocks of compute ranks to staging ranks
// (the paper's 64:1 / 128:1 server arrangement).
func DefaultRoute(writerRank, numCompute, numStaging int) int {
	if numStaging <= 0 {
		return 0
	}
	idx := writerRank * numStaging / numCompute
	if idx >= numStaging {
		idx = numStaging - 1
	}
	return idx
}

// PartialFunc is the compute-node first pass: a local, deterministic
// operation on the output data whose (small) result rides on the fetch
// request. Examples: local min/max, local array dimensions.
type PartialFunc func(schema *ffs.Schema, rec ffs.Record) (any, error)

// TransformFunc is an optional compute-node local processing pass applied
// to the output before packing — the paper's Stage-1a "filtering out
// undesired regions" use case. It may return a modified record (and
// schema) whose volume is smaller than the input's.
type TransformFunc func(schema *ffs.Schema, rec ffs.Record) (*ffs.Schema, ffs.Record, error)

// AggregateFunc combines the partial results of all compute ranks into the
// aggregated values handed to every operator's Initialize.
type AggregateFunc func(partials []RankPartial) map[string]any

// ClientConfig configures the compute-side runtime of one rank.
type ClientConfig struct {
	// WriterRank is this compute process's rank in the compute job.
	WriterRank int
	// NumCompute and NumStaging size the job.
	NumCompute int
	NumStaging int
	// Endpoint is this compute node's fabric attachment.
	Endpoint *fabric.Endpoint
	// StagingBase is the fabric endpoint id of staging index 0; staging
	// index i lives at endpoint StagingBase+i. The conventional layout
	// puts compute at endpoints [0, NumCompute) and staging immediately
	// after, so StagingBase == NumCompute.
	StagingBase int
	// Route overrides the compute→staging assignment. Nil selects
	// DefaultRoute.
	Route RouteFunc
	// Transform is the optional Stage-1a local processing pass (e.g.
	// filtering), applied before PartialCalculate and packing.
	Transform TransformFunc
	// PartialCalculate is the optional Stage-1a local pass whose small
	// result piggybacks on the fetch request.
	PartialCalculate PartialFunc
	// Faults is the shared fault plan, consulted for dump-indexed staging
	// membership so writes route around crashed, fenced and bouncing
	// staging ranks. Nil means fault-free routing.
	Faults *faults.Injector
	// Membership, when non-nil, supplies the elastic pool size: each
	// dump is served by the first Membership(dump) ranks the fault plan
	// leaves serving, and Route picks a position within that pool
	// instead of within the full staging area. Elastic pipelines install
	// a hook that blocks — deadline-bounded — until the dump's size has
	// been announced. Nil keeps the whole staging area as the pool.
	Membership func(timestep int64) (int, error)
	// Retry bounds transient-fault retries of the fetch-request send.
	// Zero fields take DefaultRetryPolicy values.
	Retry RetryPolicy
	// Tracer, when non-nil, records write spans and retry/reroute
	// instants into the flight recorder.
	Tracer *trace.Recorder
}

// Client is the PreDatA runtime inside one compute process.
type Client struct {
	cfg   ClientConfig
	retry RetryPolicy
	views *membership
	// VisibleTime accumulates the I/O time visible to the simulation:
	// partial calculation + packing + request dispatch.
	VisibleTime time.Duration
	// PackedBytes accumulates the bytes exposed for pulling.
	PackedBytes int64
	// Retries counts fetch-request sends retried after transient faults.
	Retries int64
	// Rerouted counts dumps whose fetch request was rehashed onto a
	// surviving staging rank because the primary had crashed.
	Rerouted int64
}

// NewClient validates the configuration and returns a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Endpoint == nil {
		return nil, fmt.Errorf("predata: client needs a fabric endpoint")
	}
	if cfg.NumCompute < 1 || cfg.NumStaging < 1 {
		return nil, fmt.Errorf("predata: job sizes compute=%d staging=%d must be >= 1",
			cfg.NumCompute, cfg.NumStaging)
	}
	if cfg.WriterRank < 0 || cfg.WriterRank >= cfg.NumCompute {
		return nil, fmt.Errorf("predata: writer rank %d outside [0,%d)", cfg.WriterRank, cfg.NumCompute)
	}
	if cfg.Route == nil {
		cfg.Route = DefaultRoute
	}
	return &Client{
		cfg:   cfg,
		retry: cfg.Retry.withDefaults(),
		views: newMembership(cfg.Faults, cfg.StagingBase, cfg.NumStaging, cfg.Membership),
	}, nil
}

// Endpoint returns the client's fabric attachment, for callers that need
// direct fabric access (e.g. watchdog tests blocking a compute rank).
func (c *Client) Endpoint() *fabric.Endpoint { return c.cfg.Endpoint }

// reserved field names added to every packed chunk.
const (
	fieldRank     = "_rank"
	fieldTimestep = "_timestep"
)

// Write performs the PreDatA output path for one dump: Stage 1a (partial
// calculate), 1b (pack), 1c (route + fetch request). It returns the
// visible I/O duration; the data movement itself happens later, when the
// staging server pulls the exposed buffer.
//
// Contract: a client performs exactly one Write per timestep, with
// timesteps increasing — the staging server counts one fetch request per
// served rank per dump. Applications with several output groups bundle
// them into one record (as the GTC proxy does with its two species).
func (c *Client) Write(schema *ffs.Schema, rec ffs.Record, timestep int64) (time.Duration, error) {
	start := time.Now()
	sp := c.cfg.Tracer.Begin(trace.PhaseWrite, c.cfg.Endpoint.ID(), -1, timestep, -1)
	// One span covers the whole write; error paths End it with 0 bytes.
	sentBytes := int64(0)
	defer func() { sp.End(sentBytes) }()
	if c.cfg.Transform != nil {
		var err error
		schema, rec, err = c.cfg.Transform(schema, rec)
		if err != nil {
			return 0, fmt.Errorf("predata: Transform: %w", err)
		}
	}
	var partial any
	if c.cfg.PartialCalculate != nil {
		p, err := c.cfg.PartialCalculate(schema, rec)
		if err != nil {
			return 0, fmt.Errorf("predata: PartialCalculate: %w", err)
		}
		partial = p
	}
	packed := &ffs.Schema{
		Name: schema.Name,
		Fields: append([]ffs.Field{
			{Name: fieldRank, Kind: ffs.KindInt64},
			{Name: fieldTimestep, Kind: ffs.KindInt64},
		}, schema.Fields...),
	}
	full := make(ffs.Record, len(rec)+2)
	for k, v := range rec {
		full[k] = v
	}
	full[fieldRank] = int64(c.cfg.WriterRank)
	full[fieldTimestep] = timestep
	enc, err := ffs.Encode(packed, full)
	if err != nil {
		return 0, fmt.Errorf("predata: pack: %w", err)
	}
	// Seal at encode: the CRC frame travels through the fabric untouched
	// and is verified on the staging side before anything reduces the
	// chunk, so corruption anywhere along the path is caught end to end.
	buf := staging.Seal(enc)
	c.cfg.Endpoint.SetEpoch(timestep)
	h := c.cfg.Endpoint.Expose(buf)
	pool, active, err := c.views.view(timestep)
	if err != nil {
		return 0, err
	}
	idx, rerouted, err := c.views.place(pool, active, c.cfg.Route, c.cfg.WriterRank, c.cfg.NumCompute, timestep)
	if err != nil {
		return 0, err
	}
	if rerouted {
		c.Rerouted++
		c.cfg.Tracer.Instant(trace.PhaseReroute, c.cfg.Endpoint.ID(),
			c.cfg.StagingBase+idx, timestep, 0, 0)
	}
	dst := c.cfg.StagingBase + idx
	req := FetchRequest{
		Handle:     h,
		WriterRank: c.cfg.WriterRank,
		Timestep:   timestep,
		Bytes:      len(buf),
	}
	req.Partial = partial
	if err := c.sendWithRetry(dst, req); err != nil {
		return 0, fmt.Errorf("predata: fetch request: %w", err)
	}
	visible := time.Since(start)
	c.VisibleTime += visible
	c.PackedBytes += int64(len(buf))
	sentBytes = int64(len(buf))
	return visible, nil
}

// sendWithRetry dispatches the fetch request, retrying transient faults
// with capped exponential backoff. Non-transient failures (crashed
// endpoint, fabric shutdown) propagate immediately — with one carve-out:
// when the shared plan says the down destination revives before this
// request's dump (a restart bounce, not a crash), the client waits the
// downtime out under the dump deadline. The revived rank recovers its
// journal and still expects this request.
func (c *Client) sendWithRetry(dst int, req FetchRequest) error {
	deadline := time.Now().Add(c.retry.DumpDeadline)
	for attempt := 0; ; attempt++ {
		err := c.cfg.Endpoint.SendCtl(dst, req)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, faults.ErrTransient):
			if attempt+1 >= c.retry.MaxAttempts {
				return err
			}
		case errors.Is(err, faults.ErrEndpointDown) && c.cfg.Faults.Revives(dst, req.Timestep):
			if time.Now().After(deadline) {
				return fmt.Errorf("predata: endpoint %d still down past the dump deadline awaiting its restart: %w", dst, err)
			}
		default:
			return err
		}
		c.Retries++
		c.cfg.Tracer.Instant(trace.PhaseRetry, c.cfg.Endpoint.ID(), dst,
			req.Timestep, int64(attempt), 0)
		time.Sleep(c.retry.backoff(attempt))
	}
}

// ServerConfig configures one staging rank's runtime.
type ServerConfig struct {
	// StagingIndex is this rank's index within the staging area.
	StagingIndex int
	// Comm is the communicator over the staging ranks (the staging area
	// runs as its own message-passing program).
	Comm *mpi.Comm
	// Endpoint is this staging node's fabric attachment.
	Endpoint *fabric.Endpoint
	// NumCompute is the size of the compute job.
	NumCompute int
	// Route must match the clients' route function. Nil selects
	// DefaultRoute.
	Route RouteFunc
	// Aggregate combines piggybacked partials from *all* compute ranks;
	// nil yields nil aggregates.
	Aggregate AggregateFunc
	// Engine executes the operators; nil selects a single-worker engine.
	Engine *staging.Engine
	// PullConcurrency is the number of chunks pulled in flight at once.
	// Values < 1 mean 1 (strict streaming).
	PullConcurrency int
	// ChunkOrder customizes the order in which this rank pulls and
	// streams chunks ("place the data chunks present within the data
	// stream into some desired order to ease implementing data analysis
	// services"). Nil orders by ascending writer rank. With
	// PullConcurrency > 1 the order determines pull issue order, not
	// strict delivery order.
	ChunkOrder func(a, b FetchRequest) bool
	// ChunkFilter, when non-nil, drops chunks for which it returns false
	// before they reach any operator. It runs on the event-stream path
	// (an evpath filter stone), so dropped chunks cost no Map work.
	ChunkFilter func(*staging.Chunk) bool
	// NumStaging is the original size of the staging area, which stays
	// fixed across failures (StagingIndex keeps its meaning even as the
	// communicator shrinks). Zero means Comm.Size().
	NumStaging int
	// StagingBase is the fabric endpoint id of staging index 0. Zero
	// means the conventional layout, NumCompute.
	StagingBase int
	// Faults is the shared fault plan, consulted for dump-indexed
	// membership (which staging ranks serve which writers at dump t).
	// Nil means fault-free membership.
	Faults *faults.Injector
	// Membership, when non-nil, supplies the elastic pool size exactly
	// as ClientConfig.Membership does, and must be the same function the
	// clients route with: this rank serves the writers Route maps to its
	// position within the pool, and nothing for dumps it sits out. With
	// Membership set, ServeDump always runs under the retry policy's
	// DumpDeadline — the elastic scaling loop must be deadline-bounded.
	Membership func(timestep int64) (int, error)
	// Retry bounds transient-fault retries and the per-dump gather
	// deadline. Zero fields take DefaultRetryPolicy values; the deadline
	// is enforced only when Faults is non-nil, preserving the fault-free
	// contract that gathers block until the watchdog intervenes.
	Retry RetryPolicy
	// Flow, when non-nil, is this rank's memory-budget controller: every
	// pull is admitted against its byte budget, overflow spills to disk
	// and is replayed before Reduce, and persistent overload climbs the
	// degradation ladder (spill → shed optional operators → raw
	// pass-through). Nil disables admission control (the pre-budget
	// behavior). With Flow set, the dump is also bounded by the retry
	// policy's DumpDeadline, since admission waits must have a horizon.
	Flow *flowctl.Controller
	// Journal, when non-nil, is this rank's write-ahead log. Every fetch
	// request is journaled as it arrives and every pulled chunk's packed
	// bytes are journaled before the chunk enters the stone graph, so a
	// crashed incarnation's successor can replay the dump instead of
	// losing it; a commit record seals each completed dump and lets
	// recovery dedupe against work the engine already retired. Nil runs
	// without durability (the pre-journal behavior).
	Journal *wal.Log
	// Tracer, when non-nil, records gather/aggregate spans and retry
	// instants into the flight recorder. ServeDump also stamps the
	// engine, communicator, and fabric endpoint with the current dump
	// so their events group per timestep.
	Tracer *trace.Recorder
}

// DumpStats reports the staging-side cost of one dump on one rank.
type DumpStats struct {
	// Requests is the number of fetch requests this rank consumed.
	Requests int
	// BytesPulled is the packed-chunk volume moved to this rank.
	BytesPulled int64
	// PullModeled is the modeled network time of this rank's pulls.
	PullModeled time.Duration
	// ChunksFiltered counts chunks dropped by the ChunkFilter stone.
	ChunksFiltered int
	// Retries counts fabric operations retried after transient faults
	// (request receives and chunk pulls).
	Retries int
	// Redistributed counts requests this rank served on behalf of a
	// crashed staging rank (the writer's primary route was elsewhere).
	Redistributed int
	// Drops counts chunks lost because their endpoint crashed before the
	// pull; the dump still completes, marked Degraded.
	Drops int
	// CorruptPulls counts deliveries whose CRC verification failed (each
	// is transparently re-pulled within the attempt budget).
	CorruptPulls int
	// CorruptDrops counts chunks abandoned because every re-pull returned
	// damaged bytes — the source copy is bad. The chunk falls through to
	// the shed ladder: the dump completes without it, marked Degraded.
	CorruptDrops int
	// HedgedPulls counts pulls that exceeded the bandwidth-model deadline
	// and launched a hedge attempt; HedgeWins counts races the hedge won.
	HedgedPulls int
	HedgeWins   int
	// Fenced marks a dump this rank sat out because a partition cut it
	// off from the staging quorum: alive, but not serving.
	Fenced bool
	// Down marks a dump this rank sat out inside a restart window: the
	// process was bounced and its writers were rerouted until revival.
	Down bool
	// WalReplayed counts chunks this dump decoded out of the journal
	// instead of pulling them over the fabric (crash-restart replay).
	WalReplayed int
	// Degraded mirrors the dump result's Degraded mark.
	Degraded bool
	// RecoveryWall is the time this rank spent reconfiguring membership
	// (communicator shrink) ahead of this dump.
	RecoveryWall time.Duration
	// Overload reports the flow controller's throttle/spill/shed/pass
	// decisions for this dump; nil when no controller is configured.
	Overload *flowctl.OverloadStats
	// Wall phases.
	GatherWall    time.Duration
	AggregateWall time.Duration
	ProcessWall   time.Duration
}

// Server is the PreDatA runtime inside one staging process.
type Server struct {
	cfg    ServerConfig
	retry  RetryPolicy
	views  *membership
	served []int // compute ranks this staging index serves, ascending
	// pending buffers fetch requests that arrived for future timesteps.
	pending map[int64][]FetchRequest
	// servedBy caches the per-timestep served set under membership changes.
	servedBy map[int64][]int
	// replayable holds journaled chunk records recovered from a crashed
	// incarnation's log, keyed by timestep, awaiting ReplayDump.
	replayable map[int64][]wal.Record
	// recovery accumulates membership-reconfiguration wall time, reported
	// on the next served dump.
	recovery time.Duration
	// epoch is the membership epoch of the installed communicator; -1
	// before the first Reconfigure. Epochs only move forward.
	epoch int64
}

// NewServer validates the configuration and returns a server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Endpoint == nil || cfg.Comm == nil {
		return nil, fmt.Errorf("predata: server needs a fabric endpoint and a staging communicator")
	}
	if cfg.NumCompute < 1 {
		return nil, fmt.Errorf("predata: NumCompute %d must be >= 1", cfg.NumCompute)
	}
	if cfg.Route == nil {
		cfg.Route = DefaultRoute
	}
	if cfg.Engine == nil {
		cfg.Engine = staging.NewEngine(staging.Config{})
	}
	if cfg.PullConcurrency < 1 {
		cfg.PullConcurrency = 1
	}
	if cfg.NumStaging < 1 {
		cfg.NumStaging = cfg.Comm.Size()
	}
	if cfg.StagingBase < 1 {
		cfg.StagingBase = cfg.NumCompute
	}
	s := &Server{
		cfg:        cfg,
		retry:      cfg.Retry.withDefaults(),
		pending:    make(map[int64][]FetchRequest),
		servedBy:   make(map[int64][]int),
		replayable: make(map[int64][]wal.Record),
		epoch:      -1,
		views:      newMembership(cfg.Faults, cfg.StagingBase, cfg.NumStaging, cfg.Membership),
	}
	for r := 0; r < cfg.NumCompute; r++ {
		if cfg.Route(r, cfg.NumCompute, cfg.NumStaging) == cfg.StagingIndex {
			s.served = append(s.served, r)
		}
	}
	sort.Ints(s.served)
	return s, nil
}

// Served returns the compute ranks this staging rank serves (fault-free).
func (s *Server) Served() []int { return append([]int(nil), s.served...) }

// servedAt returns the compute ranks this staging index serves at
// timestep: the writers the dump's membership view places here (fault
// free and fixed-size, that is Served()).
func (s *Server) servedAt(timestep int64) ([]int, error) {
	if s.views.fixed() {
		return s.served, nil
	}
	if cached, ok := s.servedBy[timestep]; ok {
		return cached, nil
	}
	pool, active, err := s.views.view(timestep)
	if err != nil {
		return nil, err
	}
	served := []int{}
	for r := 0; r < s.cfg.NumCompute; r++ {
		// A writer nobody can serve is left out; the pipeline validates
		// its plans against that.
		if idx, _, err := s.views.place(pool, active, s.cfg.Route, r, s.cfg.NumCompute, timestep); err == nil && idx == s.cfg.StagingIndex {
			served = append(served, r)
		}
	}
	s.servedBy[timestep] = served
	return served, nil
}

// Epoch returns the membership epoch of the installed communicator; -1
// before the first Reconfigure.
func (s *Server) Epoch() int64 { return s.epoch }

// Reconfigure installs the staging communicator for membership epoch
// (any membership view change — see the staging driver's installView),
// charging the reconfiguration wall time to the next served dump's
// stats. The server's StagingIndex identity and routing are unchanged —
// membership is derived from shared state (fault plan, elastic
// schedule), not from the communicator.
//
// Epochs only move forward: a Reconfigure whose epoch precedes the
// installed one is a stale delivery and is rejected. Redelivering the
// current epoch with the same communicator (identical id and size) is
// an idempotent no-op; offering a *different* communicator for the
// current epoch means two membership derivations diverged, which is
// also rejected.
func (s *Server) Reconfigure(comm *mpi.Comm, epoch int64, recovery time.Duration) error {
	if comm == nil {
		return fmt.Errorf("predata: Reconfigure(epoch %d): nil communicator", epoch)
	}
	if epoch < s.epoch {
		return fmt.Errorf("predata: Reconfigure epoch moved backwards: epoch %d offered after epoch %d installed — stale membership delivery",
			epoch, s.epoch)
	}
	if epoch == s.epoch {
		if comm.ID() == s.cfg.Comm.ID() && comm.Size() == s.cfg.Comm.Size() {
			return nil // idempotent redelivery of the installed epoch
		}
		return fmt.Errorf("predata: conflicting Reconfigure for epoch %d: comm id %d (size %d) installed, id %d (size %d) offered — membership derivations diverged",
			epoch, s.cfg.Comm.ID(), s.cfg.Comm.Size(), comm.ID(), comm.Size())
	}
	s.cfg.Comm = comm
	s.epoch = epoch
	s.recovery += recovery
	return nil
}

// ServeDump processes one I/O dump: gather requests, aggregate partials,
// pull + decode + stream chunks through the engine. All staging ranks must
// call ServeDump collectively with the same timestep and operator list.
func (s *Server) ServeDump(timestep int64, ops []staging.Operator) (*staging.Result, *DumpStats, error) {
	stats := &DumpStats{RecoveryWall: s.recovery}
	s.recovery = 0
	if s.cfg.Tracer != nil {
		// Stamp the dump onto every layer this rank records from:
		// collective instants, engine phase spans, and the fabric's
		// control-plane events all group under this timestep.
		s.cfg.Comm.SetTraceDump(timestep)
		s.cfg.Engine.SetTraceDump(timestep)
	}
	// The endpoint epoch always tracks the dump: partition windows key
	// off it for control-plane sends, tracer or not.
	s.cfg.Endpoint.SetEpoch(timestep)

	// Stage 2a: gather fetch requests from every served compute rank.
	// Under fault injection the gather is deadline-bound: the staging
	// area is collective, so one wedged gather wedges every rank.
	start := time.Now()
	sp := s.cfg.Tracer.Begin(trace.PhaseGather, s.cfg.Endpoint.ID(), -1, timestep, -1)
	reqs, err := s.gatherRequests(timestep, stats)
	if err != nil {
		sp.End(0)
		return nil, nil, err
	}
	sp.End(int64(len(reqs)))
	stats.GatherWall = time.Since(start)

	// Stage 2b: exchange piggybacked partials across the staging area and
	// aggregate them globally.
	start = time.Now()
	sp = s.cfg.Tracer.Begin(trace.PhaseAggregate, s.cfg.Endpoint.ID(), -1, timestep, -1)
	local := make([]RankPartial, len(reqs))
	for i, r := range reqs {
		local[i] = RankPartial{Rank: r.WriterRank, Partial: r.Partial}
	}
	all, err := mpi.Allgather(s.cfg.Comm, local)
	if err != nil {
		sp.End(0)
		return nil, nil, fmt.Errorf("predata: partial exchange: %w", err)
	}
	var agg map[string]any
	if s.cfg.Aggregate != nil {
		var flat []RankPartial
		for _, row := range all {
			flat = append(flat, row...)
		}
		sort.Slice(flat, func(i, j int) bool { return flat[i].Rank < flat[j].Rank })
		agg = s.cfg.Aggregate(flat)
	}
	sp.End(0)
	stats.AggregateWall = time.Since(start)

	// Stages 3+4: pull chunks (bounded concurrency) and stream them
	// through the engine. Pulls run in a producer pool so that network
	// movement overlaps Map execution, as on the real machine.
	start = time.Now()
	order := s.cfg.ChunkOrder
	if order == nil {
		order = func(a, b FetchRequest) bool { return a.WriterRank < b.WriterRank }
	}
	sort.Slice(reqs, func(i, j int) bool { return order(reqs[i], reqs[j]) })
	chunks := make(chan *staging.Chunk, s.cfg.PullConcurrency)

	// With a flow controller the dump runs under a deadline: admission
	// and submission waits must have a horizon, or a mis-sized budget
	// could wedge the collective staging area.
	ctx := context.Background()
	var flow *flowctl.DumpFlow
	if s.cfg.Flow != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.retry.DumpDeadline)
		defer cancel()
		flow = s.cfg.Flow.StartDump(timestep)
		defer flow.Finish()
	}

	// Pulled buffers flow through an event-stream graph before reaching
	// the engine: decode stone -> optional filter stone -> terminal stone
	// feeding the engine's channel. The stones' bounded queues propagate
	// backpressure from a slow engine all the way to the pull workers.
	mgr := evpath.NewManager()
	terminal, err := mgr.NewTerminalStone(func(e *evpath.Event) error {
		chunks <- e.Data.(*staging.Chunk)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	head := terminal
	var filterStone *evpath.Stone
	if s.cfg.ChunkFilter != nil {
		filterStone, err = mgr.NewFilterStone(func(e *evpath.Event) bool {
			chunk := e.Data.(*staging.Chunk)
			keep := s.cfg.ChunkFilter(chunk)
			if !keep && chunk.Release != nil {
				// A dropped chunk never reaches the engine, so its budget
				// credits come back here.
				chunk.Release()
			}
			return keep
		})
		if err != nil {
			return nil, nil, err
		}
		if err := filterStone.LinkTo(terminal); err != nil {
			return nil, nil, err
		}
		head = filterStone
	}
	decode, err := mgr.NewTransformStone(func(e *evpath.Event) (*evpath.Event, error) {
		buf, release := eventPayload(e)
		chunk, err := staging.DecodeChunk(buf)
		if err != nil {
			if release != nil {
				release()
			}
			return nil, fmt.Errorf("predata: decode chunk from rank %d: %w",
				int(e.Attrs["writer"]), err)
		}
		chunk.Release = release
		if flow != nil {
			if shedding, sampled := flow.ShedClass(); shedding {
				if sampled {
					chunk.Shed = staging.ShedSampled
				} else {
					chunk.Shed = staging.ShedSkipped
				}
			}
		}
		return &evpath.Event{Attrs: e.Attrs, Data: chunk}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	if err := decode.LinkTo(head); err != nil {
		return nil, nil, err
	}
	if s.cfg.Flow != nil {
		// Byte-weighted stone queue: the decode stone's backlog is bounded
		// by the same budget the accountant enforces, so the stone graph
		// cannot buffer more than one budget's worth of packed bytes.
		weigh := func(e *evpath.Event) int64 {
			buf, _ := eventPayload(e)
			return int64(len(buf))
		}
		if err := decode.SetByteLimit(s.cfg.Flow.Budget().Capacity(), weigh); err != nil {
			return nil, nil, err
		}
	}

	var (
		prodWG  sync.WaitGroup
		pullMu  sync.Mutex
		pullErr error
	)
	reqCh := make(chan FetchRequest)
	for w := 0; w < s.cfg.PullConcurrency; w++ {
		prodWG.Add(1)
		go func() {
			defer prodWG.Done()
			for req := range reqCh {
				pullMu.Lock()
				failed := pullErr != nil
				pullMu.Unlock()
				if failed {
					continue // drain remaining requests without pulling
				}
				// Credit-based admission: the pull is only issued once the
				// budget (or the spill path's serialized overdraft) covers
				// the chunk, so the compute rank's exposed buffer — not
				// staging memory — absorbs the wait, and the compute side
				// stays asynchronous.
				var adm *flowctl.Admission
				if flow != nil {
					a, err := flow.Admit(ctx, int64(req.Bytes))
					if err != nil {
						s.recordPullErr(&pullMu, &pullErr,
							fmt.Errorf("predata: admitting chunk from rank %d: %w", req.WriterRank, err))
						continue
					}
					adm = a
				}
				buf, d, err := s.pullWithRetry(ctx, req, stats, &pullMu)
				if err != nil {
					if adm != nil {
						adm.Abort()
					}
					// A crashed source endpoint loses only its own chunk:
					// record the drop and let the dump complete Degraded.
					// Anything else (shutdown, decode) aborts the dump.
					if errors.Is(err, faults.ErrEndpointDown) {
						pullMu.Lock()
						stats.Drops++
						pullMu.Unlock()
						s.cfg.Tracer.Instant(trace.PhaseDrop, s.cfg.Endpoint.ID(),
							req.WriterRank, req.Timestep, int64(req.WriterRank), 0)
						continue
					}
					// A source that stays corrupt after the re-pull budget is
					// shed like an overloaded chunk: the bad bytes must never
					// reach Reduce, so the dump completes without them,
					// explicitly Degraded.
					if errors.Is(err, staging.ErrCorrupt) {
						pullMu.Lock()
						stats.CorruptDrops++
						pullMu.Unlock()
						s.cfg.Tracer.Instant(trace.PhaseCorruptDrop, s.cfg.Endpoint.ID(),
							req.WriterRank, req.Timestep, int64(req.WriterRank), 0)
						continue
					}
					s.recordPullErr(&pullMu, &pullErr,
						fmt.Errorf("predata: pull from rank %d: %w", req.WriterRank, err))
					continue
				}
				pullMu.Lock()
				stats.BytesPulled += int64(len(buf))
				stats.PullModeled += d
				pullMu.Unlock()
				// Durability point: the chunk's bytes hit the journal before
				// the stone graph sees them, so a crash anywhere downstream
				// can replay instead of re-pulling a long-released region.
				if jerr := s.journalChunk(req, buf); jerr != nil {
					if adm != nil {
						adm.Abort()
					}
					s.recordPullErr(&pullMu, &pullErr, jerr)
					continue
				}
				if err := s.routePulled(ctx, decode, adm, req, buf); err != nil {
					s.recordPullErr(&pullMu, &pullErr, err)
				}
			}
		}()
	}
	go func() {
		for _, r := range reqs {
			reqCh <- r
		}
		close(reqCh)
	}()
	go func() {
		prodWG.Wait()
		if flow != nil {
			// Lossless completion: replay the spill segment through the
			// same stone graph before the engine's stream ends, acquiring
			// real budget credits per chunk so replay drains no faster
			// than the engine.
			err := flow.Replay(ctx, func(writer int, ts int64, payload []byte, release func()) error {
				return decode.SubmitContext(ctx, &evpath.Event{
					Attrs: map[string]int64{"writer": int64(writer), "timestep": ts},
					Data:  &pulledChunk{buf: payload, release: release},
				})
			})
			if err != nil {
				s.recordPullErr(&pullMu, &pullErr, fmt.Errorf("predata: spill replay: %w", err))
			}
		}
		// Drain the stone graph, then release the engine.
		if err := mgr.Close(); err != nil {
			s.recordPullErr(&pullMu, &pullErr, err)
		}
		if filterStone != nil {
			pullMu.Lock()
			stats.ChunksFiltered = int(filterStone.Stats().Dropped)
			pullMu.Unlock()
		}
		close(chunks)
	}()
	res, err := s.cfg.Engine.ProcessDump(s.cfg.Comm, chunks, ops, agg)
	// ProcessDump returns only after the chunks channel is closed, so the
	// producer pool and the stone graph are done and stats/pullErr are
	// stable.
	stats.ProcessWall = time.Since(start)
	if flow != nil {
		ov := flow.Finish()
		stats.Overload = &ov
	}
	if pullErr != nil {
		return nil, stats, pullErr
	}
	if err != nil {
		return nil, stats, err
	}
	if cerr := s.commitDump(timestep); cerr != nil {
		return nil, stats, cerr
	}
	res.Degraded = res.Degraded || stats.Drops > 0 || stats.CorruptDrops > 0 ||
		(stats.Overload != nil && stats.Overload.PassedChunks > 0) || s.views.degradedAt(timestep)
	stats.Degraded = res.Degraded
	return res, stats, nil
}

// pulledChunk is the event payload for an admitted chunk: the packed
// bytes plus the budget-lease release hook the decode stone attaches to
// the decoded Chunk.
type pulledChunk struct {
	buf     []byte
	release func()
}

// eventPayload unwraps a decode-stone event: plain []byte (no admission
// control) or *pulledChunk (admitted against the budget).
func eventPayload(e *evpath.Event) (buf []byte, release func()) {
	switch d := e.Data.(type) {
	case []byte:
		return d, nil
	case *pulledChunk:
		return d.buf, d.release
	}
	return nil, nil
}

// routePulled hands a pulled chunk to its admitted fate: stream into the
// stone graph (process), append to the overflow segment (spill), or write
// raw to the PFS sink (pass). With no admission (adm == nil) it streams
// unconditionally, the pre-budget behavior.
func (s *Server) routePulled(ctx context.Context, decode *evpath.Stone, adm *flowctl.Admission, req FetchRequest, buf []byte) error {
	attrs := map[string]int64{"writer": int64(req.WriterRank), "timestep": req.Timestep}
	if adm == nil {
		return decode.SubmitContext(ctx, &evpath.Event{Attrs: attrs, Data: buf})
	}
	switch adm.Decision() {
	case flowctl.DecideProcess:
		release, err := adm.Keep()
		if err != nil {
			return err
		}
		err = decode.SubmitContext(ctx, &evpath.Event{
			Attrs: attrs,
			Data:  &pulledChunk{buf: buf, release: release},
		})
		if err != nil {
			release()
			return err
		}
		return nil
	case flowctl.DecideSpill:
		return adm.Spill(req.WriterRank, req.Timestep, buf)
	case flowctl.DecidePass:
		return adm.Pass(req.WriterRank, req.Timestep, buf)
	}
	return fmt.Errorf("predata: unknown admission decision %d", adm.Decision())
}

// recvRequest receives one fetch request, retrying injected transient
// receive faults under the dump deadline (zero deadline blocks without
// limit, the fault-free contract).
func (s *Server) recvRequest(deadline time.Time, stats *DumpStats) (FetchRequest, error) {
	for attempt := 0; ; attempt++ {
		var (
			data any
			err  error
		)
		if deadline.IsZero() {
			_, data, err = s.cfg.Endpoint.RecvCtl()
		} else {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				return FetchRequest{}, fmt.Errorf(
					"predata: dump deadline %v exceeded gathering fetch requests: %w",
					s.retry.DumpDeadline, fabric.ErrTimeout)
			}
			_, data, err = s.cfg.Endpoint.RecvCtlTimeout(remaining)
		}
		if err != nil {
			if errors.Is(err, faults.ErrTransient) {
				stats.Retries++
				s.cfg.Tracer.Instant(trace.PhaseRetry, s.cfg.Endpoint.ID(), -1,
					-1, int64(attempt), 0)
				time.Sleep(s.retry.backoff(attempt))
				continue
			}
			return FetchRequest{}, fmt.Errorf("predata: gathering fetch requests: %w", err)
		}
		req, ok := data.(FetchRequest)
		if !ok {
			return FetchRequest{}, fmt.Errorf("predata: unexpected control message %T", data)
		}
		return req, nil
	}
}

// pullWithRetry pulls one chunk end-to-end verified: the transfer uses
// the non-consuming PullRetain, the delivered frame's CRC is checked
// before anything downstream sees the bytes, and the source region is
// acknowledged (released) only after verification. Injected transients
// *and* corrupted deliveries are retried with capped exponential
// backoff within the attempt budget — wire corruption heals on re-pull
// because the source still holds the intact region. A source that stays
// corrupt exhausts the budget and surfaces staging.ErrCorrupt for the
// caller's shed path. ctx bounds each pull's deferred-phase wait
// (background ctx preserves the fault-free contract of blocking until
// the watchdog intervenes).
func (s *Server) pullWithRetry(ctx context.Context, req FetchRequest, stats *DumpStats, mu *sync.Mutex) ([]byte, time.Duration, error) {
	for attempt := 0; ; attempt++ {
		buf, d, err := s.hedgedPull(ctx, req, stats, mu)
		if err == nil {
			payload, perr := staging.Unseal(buf)
			if perr == nil {
				if aerr := s.cfg.Endpoint.Ack(req.Handle); aerr != nil {
					return nil, 0, aerr
				}
				return payload, d, nil
			}
			mu.Lock()
			stats.CorruptPulls++
			mu.Unlock()
			s.cfg.Tracer.Instant(trace.PhaseCorruptDetect, s.cfg.Endpoint.ID(),
				req.Handle.Endpoint, req.Timestep, int64(req.WriterRank), int64(attempt))
			err = fmt.Errorf("predata: chunk from rank %d attempt %d: %w", req.WriterRank, attempt, perr)
		} else if !errors.Is(err, faults.ErrTransient) {
			return nil, 0, err
		}
		if attempt+1 >= s.retry.MaxAttempts {
			if errors.Is(err, staging.ErrCorrupt) {
				// Every attempt delivered damaged bytes: the source copy is
				// bad and re-pulling cannot help. Release the region so the
				// writer's exposed-bytes accounting drains; the caller sheds
				// the chunk.
				_ = s.cfg.Endpoint.Ack(req.Handle)
			}
			return nil, 0, err
		}
		mu.Lock()
		stats.Retries++
		mu.Unlock()
		s.cfg.Tracer.Instant(trace.PhaseRetry, s.cfg.Endpoint.ID(), req.Handle.Endpoint,
			req.Timestep, int64(attempt), 0)
		time.Sleep(s.retry.backoff(attempt))
	}
}

// hedgedPull is one transfer attempt with straggler protection: when
// the primary pull exceeds a deadline derived from the fabric's
// bandwidth model (HedgeFactor x the idle-fabric wall estimate), a
// second attempt is launched against the same retained region — the
// source still holds the bytes, so the duplicate pull is safe — and the
// first result wins while the loser is cancelled via its context.
// Hedging engages only on a paced fabric; otherwise this is a plain
// PullRetain.
func (s *Server) hedgedPull(ctx context.Context, req FetchRequest, stats *DumpStats, mu *sync.Mutex) ([]byte, time.Duration, error) {
	if s.retry.HedgeFactor < 0 {
		return s.cfg.Endpoint.PullRetain(ctx, req.Handle)
	}
	_, wall := s.cfg.Endpoint.PullEstimate(req.Handle.Size)
	if wall <= 0 {
		return s.cfg.Endpoint.PullRetain(ctx, req.Handle)
	}
	delay := time.Duration(float64(wall) * s.retry.HedgeFactor)
	if delay < s.retry.HedgeFloor {
		delay = s.retry.HedgeFloor
	}
	type result struct {
		buf   []byte
		d     time.Duration
		err   error
		hedge bool
	}
	pctx, cancelPrimary := context.WithCancel(ctx)
	defer cancelPrimary()
	hctx, cancelHedge := context.WithCancel(ctx)
	defer cancelHedge()
	ch := make(chan result, 2)
	go func() {
		buf, d, err := s.cfg.Endpoint.PullRetain(pctx, req.Handle)
		ch <- result{buf, d, err, false}
	}()
	timer := time.NewTimer(delay)
	var first result
	select {
	case first = <-ch:
		timer.Stop()
		return first.buf, first.d, first.err
	case <-timer.C:
	}
	// The primary blew its bandwidth-model deadline: race a hedge
	// against it on the retained region.
	mu.Lock()
	stats.HedgedPulls++
	mu.Unlock()
	s.cfg.Tracer.Instant(trace.PhaseHedge, s.cfg.Endpoint.ID(), req.Handle.Endpoint,
		req.Timestep, int64(req.WriterRank), 0)
	go func() {
		buf, d, err := s.cfg.Endpoint.PullRetain(hctx, req.Handle)
		ch <- result{buf, d, err, true}
	}()
	res := <-ch
	if res.err != nil {
		// The first finisher lost to an error; the race is decided by the
		// remaining attempt (its context stays live until it reports).
		if other := <-ch; other.err == nil {
			res = other
		}
	} else {
		// First clean finisher wins: cancel the loser and join it, so no
		// attempt outlives the race.
		if res.hedge {
			cancelPrimary()
		} else {
			cancelHedge()
		}
		<-ch
	}
	hedgeWon := int64(0)
	if res.hedge && res.err == nil {
		hedgeWon = 1
		mu.Lock()
		stats.HedgeWins++
		mu.Unlock()
	}
	s.cfg.Tracer.Instant(trace.PhaseHedgeCancel, s.cfg.Endpoint.ID(), req.Handle.Endpoint,
		req.Timestep, int64(req.WriterRank), hedgeWon)
	return res.buf, res.d, res.err
}

// recordPullErr stores the first pull failure.
func (s *Server) recordPullErr(mu *sync.Mutex, slot *error, err error) {
	mu.Lock()
	defer mu.Unlock()
	if *slot == nil {
		*slot = err
	}
}
