package predata

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"time"

	"predata/internal/evpath"
	"predata/internal/faults"
	"predata/internal/mpi"
	"predata/internal/staging"
	"predata/internal/trace"
	"predata/internal/wal"
)

// This file is the staging runtime's durability layer: every fetch
// request and pulled chunk is journaled on arrival (gatherRequests /
// journalChunk), a commit record seals each completed dump
// (commitDump), and a crashed incarnation's successor rebuilds from the
// journal (Recover) and finishes the interrupted dump out of it
// (IngestDump + ReplayDump, the two halves of the crashall drill).
//
// Invariant: a request or chunk is journaled exactly once, at first
// arrival. Requests re-seeded from recovery are *not* re-journaled —
// their records still live in the journal tail — so recovery never
// double-seeds pending and a replayed dump never double-reduces.

// encodeRequest gob-encodes a fetch request for the journal. Partial
// payloads ride an any-typed field: concrete partial types must be
// gob-registered by their defining package or encoding fails here.
func encodeRequest(req FetchRequest) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&req); err != nil {
		return nil, fmt.Errorf("predata: encoding fetch request from rank %d: %w", req.WriterRank, err)
	}
	return buf.Bytes(), nil
}

func decodeRequest(blob []byte) (FetchRequest, error) {
	var req FetchRequest
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&req); err != nil {
		return FetchRequest{}, fmt.Errorf("predata: decoding journaled fetch request: %w", err)
	}
	return req, nil
}

// journalRequest appends one just-arrived fetch request to the journal
// and stamps the append. No-op without a journal.
func (s *Server) journalRequest(req FetchRequest) error {
	if s.cfg.Journal == nil {
		return nil
	}
	blob, err := encodeRequest(req)
	if err != nil {
		return err
	}
	return s.journal(wal.KindRequest, req, blob)
}

// journalChunk appends one pulled chunk's packed bytes. No-op without a
// journal.
func (s *Server) journalChunk(req FetchRequest, buf []byte) error {
	if s.cfg.Journal == nil {
		return nil
	}
	return s.journal(wal.KindChunk, req, buf)
}

// journal appends one record and stamps PhaseJournal with the payload
// CRC the journal framed it under — the checksum trace.Verify matches
// against the corresponding PhaseWalReplay after a restart.
func (s *Server) journal(kind wal.Kind, req FetchRequest, payload []byte) error {
	crc, err := s.cfg.Journal.Append(wal.Record{Kind: kind, Writer: req.WriterRank, Timestep: req.Timestep, Payload: payload})
	if err != nil {
		return fmt.Errorf("predata: journaling rank %d's dump %d record: %w", req.WriterRank, req.Timestep, err)
	}
	s.cfg.Tracer.Instant(trace.PhaseJournal, s.cfg.Endpoint.ID(), -1,
		req.Timestep, int64(req.WriterRank), int64(crc))
	return nil
}

// commitDump seals a completed dump with a durable commit record; on
// recovery every journaled record of the dump is dropped as already
// retired. No-op without a journal.
func (s *Server) commitDump(timestep int64) error {
	if s.cfg.Journal == nil {
		return nil
	}
	if err := s.cfg.Journal.AppendCommit(timestep); err != nil {
		return fmt.Errorf("predata: committing dump %d to the journal: %w", timestep, err)
	}
	s.cfg.Tracer.Instant(trace.PhaseWalCommit, s.cfg.Endpoint.ID(), -1, timestep, 0, 0)
	return nil
}

// gatherRequests runs the request gather for one dump: consume requests
// buffered for this timestep, then receive — journaling each arrival —
// until every served writer has delivered, stashing early arrivals for
// their own dumps.
func (s *Server) gatherRequests(timestep int64, stats *DumpStats) ([]FetchRequest, error) {
	start := time.Now()
	served, err := s.servedAt(timestep)
	if err != nil {
		return nil, err
	}
	var deadline time.Time
	if s.cfg.Faults != nil || s.cfg.Membership != nil {
		deadline = start.Add(s.retry.DumpDeadline)
	}
	reqs := s.pending[timestep]
	delete(s.pending, timestep)
	got := make(map[int]bool, len(served))
	for _, r := range reqs {
		got[r.WriterRank] = true
	}
	servedSet := make(map[int]bool, len(served))
	for _, w := range served {
		servedSet[w] = true
	}
	for len(reqs) < len(served) {
		req, err := s.recvRequest(deadline, stats)
		if err != nil {
			return nil, err
		}
		if err := s.journalRequest(req); err != nil {
			return nil, err
		}
		if req.Timestep == timestep {
			reqs = append(reqs, req)
			got[req.WriterRank] = true
			continue
		}
		s.pending[req.Timestep] = append(s.pending[req.Timestep], req)
		// Each client sends its dump requests in timestep order and the
		// fabric preserves per-sender ordering, so a writer this dump
		// still awaits that has already delivered a *later* timestep here
		// will never deliver this one — its request went to another rank
		// under a diverged census. Fail fast instead of deadlocking the
		// collective staging area. (A writer served elsewhere this dump
		// may freely race ahead; only the awaited ones are checked.)
		if req.Timestep > timestep && servedSet[req.WriterRank] && !got[req.WriterRank] {
			return nil, fmt.Errorf(
				"predata: ServeDump(%d) still awaits writer %d's request, but it already sent timestep %d",
				timestep, req.WriterRank, req.Timestep)
		}
	}
	stats.Requests = len(reqs)
	for _, r := range reqs {
		if s.cfg.Route(r.WriterRank, s.cfg.NumCompute, s.cfg.NumStaging) != s.cfg.StagingIndex {
			stats.Redistributed++
		}
	}
	return reqs, nil
}

// Recover seeds a freshly built server from a crashed incarnation's
// recovered journal state: uncommitted requests re-enter the pending
// buffer (deduped per dump and writer — the journal may be re-scanned
// across repeated bounces) and uncommitted chunk records queue for
// ReplayDump. It returns the number of records re-admitted and must be
// called before the first dump is served.
func (s *Server) Recover(st *wal.State) (int, error) {
	if st == nil {
		return 0, nil
	}
	replayed := 0
	type dw struct {
		ts     int64
		writer int
	}
	seen := make(map[dw]bool)
	for _, rec := range st.Requests {
		if st.CommittedDump(rec.Timestep) {
			continue
		}
		req, err := decodeRequest(rec.Payload)
		if err != nil {
			return replayed, err
		}
		k := dw{req.Timestep, req.WriterRank}
		if seen[k] {
			continue
		}
		seen[k] = true
		s.pending[req.Timestep] = append(s.pending[req.Timestep], req)
		replayed++
	}
	for _, rec := range st.Chunks {
		if st.CommittedDump(rec.Timestep) {
			continue
		}
		s.replayable[rec.Timestep] = append(s.replayable[rec.Timestep], rec)
		replayed++
	}
	return replayed, nil
}

// IngestDump is the crash-vulnerable half of the whole-service crash
// drill: gather this dump's fetch requests and pull every chunk,
// journaling both, with NO collective and NO engine work — exactly the
// state a process has accumulated when a mid-dump crash takes the whole
// staging area down. Requests stay in pending (the journal holds them
// too) so the rebuilt incarnation's ReplayDump finds them. A down or
// persistently corrupt source is recorded as the usual drop; the
// missing chunk simply never reaches the journal.
func (s *Server) IngestDump(timestep int64) (*DumpStats, error) {
	if s.cfg.Journal == nil {
		return nil, fmt.Errorf("predata: IngestDump(%d) needs a journal — ingest without durability would lose the dump", timestep)
	}
	if s.cfg.Tracer != nil {
		s.cfg.Comm.SetTraceDump(timestep)
		s.cfg.Engine.SetTraceDump(timestep)
	}
	s.cfg.Endpoint.SetEpoch(timestep)
	stats := &DumpStats{}
	start := time.Now()
	sp := s.cfg.Tracer.Begin(trace.PhaseGather, s.cfg.Endpoint.ID(), -1, timestep, -1)
	reqs, err := s.gatherRequests(timestep, stats)
	if err != nil {
		sp.End(0)
		return stats, err
	}
	sp.End(int64(len(reqs)))
	stats.GatherWall = time.Since(start)
	// The gather consumed this dump's pending slot; put the requests
	// back so the post-crash replay can re-derive them without touching
	// the fabric. (Recovery normally reloads them from the journal; the
	// in-memory copy only matters if a test replays without a rebuild.)
	s.pending[timestep] = reqs

	ctx, cancel := context.WithTimeout(context.Background(), s.retry.DumpDeadline)
	defer cancel()
	var mu sync.Mutex
	for _, req := range reqs {
		buf, d, err := s.pullWithRetry(ctx, req, stats, &mu)
		if err != nil {
			if errors.Is(err, faults.ErrEndpointDown) {
				stats.Drops++
				s.cfg.Tracer.Instant(trace.PhaseDrop, s.cfg.Endpoint.ID(),
					req.WriterRank, req.Timestep, int64(req.WriterRank), 0)
				continue
			}
			if errors.Is(err, staging.ErrCorrupt) {
				stats.CorruptDrops++
				s.cfg.Tracer.Instant(trace.PhaseCorruptDrop, s.cfg.Endpoint.ID(),
					req.WriterRank, req.Timestep, int64(req.WriterRank), 0)
				continue
			}
			return stats, fmt.Errorf("predata: ingest pull from rank %d: %w", req.WriterRank, err)
		}
		stats.BytesPulled += int64(len(buf))
		stats.PullModeled += d
		if err := s.journalChunk(req, buf); err != nil {
			return stats, err
		}
	}
	if err := s.cfg.Journal.Sync(); err != nil {
		return stats, fmt.Errorf("predata: syncing ingest journal for dump %d: %w", timestep, err)
	}
	return stats, nil
}

// absorbIngest folds the costs a crashed incarnation paid during
// IngestDump — the movement half of a crashall drill — into the ledger
// of the dump ReplayDump finished. A nil ist (no drill) is a no-op.
func (st *DumpStats) absorbIngest(ist *DumpStats, r *staging.Result) {
	if ist == nil {
		return
	}
	st.Requests = ist.Requests
	st.Redistributed = ist.Redistributed
	st.BytesPulled += ist.BytesPulled
	st.PullModeled += ist.PullModeled
	st.Retries += ist.Retries
	st.CorruptPulls += ist.CorruptPulls
	st.HedgedPulls += ist.HedgedPulls
	st.HedgeWins += ist.HedgeWins
	st.GatherWall = ist.GatherWall
	if ist.Drops > 0 || ist.CorruptDrops > 0 {
		st.Drops += ist.Drops
		st.CorruptDrops += ist.CorruptDrops
		r.Degraded = true
		st.Degraded = true
	}
}

// ReplayDump finishes a dump out of the journal: the recovered requests
// supply the piggybacked partials for the (collective) exchange, and the
// recovered chunk records feed a fresh stone graph in ChunkOrder — no
// fabric pull happens, the sources released their regions to the crashed
// incarnation long ago. All staging ranks must call ReplayDump
// collectively with the same timestep after reconfiguring onto the same
// epoch. Each replayed chunk stamps PhaseWalReplay with the payload CRC
// so trace.Verify can match it against the crashed incarnation's
// PhaseJournal append.
func (s *Server) ReplayDump(timestep int64, ops []staging.Operator) (*staging.Result, *DumpStats, error) {
	stats := &DumpStats{RecoveryWall: s.recovery}
	s.recovery = 0
	if s.cfg.Tracer != nil {
		s.cfg.Comm.SetTraceDump(timestep)
		s.cfg.Engine.SetTraceDump(timestep)
	}
	s.cfg.Endpoint.SetEpoch(timestep)

	reqs := s.pending[timestep]
	delete(s.pending, timestep)
	recs := s.replayable[timestep]
	delete(s.replayable, timestep)
	stats.Requests = len(reqs)
	stats.WalReplayed = len(recs)
	for _, r := range reqs {
		if s.cfg.Route(r.WriterRank, s.cfg.NumCompute, s.cfg.NumStaging) != s.cfg.StagingIndex {
			stats.Redistributed++
		}
	}

	// Partial exchange, identical to the live path: the partials were
	// journaled inside their requests, so the global aggregate after the
	// crash is byte-for-byte the one the crashed service would have built.
	start := time.Now()
	sp := s.cfg.Tracer.Begin(trace.PhaseAggregate, s.cfg.Endpoint.ID(), -1, timestep, -1)
	local := make([]RankPartial, len(reqs))
	for i, r := range reqs {
		local[i] = RankPartial{Rank: r.WriterRank, Partial: r.Partial}
	}
	all, err := mpi.Allgather(s.cfg.Comm, local)
	if err != nil {
		sp.End(0)
		return nil, stats, fmt.Errorf("predata: replay partial exchange: %w", err)
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

	// Order chunk records exactly as the live pull loop would have issued
	// them, keyed through their journaled requests.
	start = time.Now()
	order := s.cfg.ChunkOrder
	if order == nil {
		order = func(a, b FetchRequest) bool { return a.WriterRank < b.WriterRank }
	}
	reqBy := make(map[int]FetchRequest, len(reqs))
	for _, r := range reqs {
		reqBy[r.WriterRank] = r
	}
	sort.Slice(recs, func(i, j int) bool { return order(reqBy[recs[i].Writer], reqBy[recs[j].Writer]) })

	chunks := make(chan *staging.Chunk, 1)
	mgr := evpath.NewManager()
	terminal, err := mgr.NewTerminalStone(func(e *evpath.Event) error {
		chunks <- e.Data.(*staging.Chunk)
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	head := terminal
	if s.cfg.ChunkFilter != nil {
		filterStone, err := mgr.NewFilterStone(func(e *evpath.Event) bool {
			return s.cfg.ChunkFilter(e.Data.(*staging.Chunk))
		})
		if err != nil {
			return nil, stats, err
		}
		if err := filterStone.LinkTo(terminal); err != nil {
			return nil, stats, err
		}
		head = filterStone
	}
	decode, err := mgr.NewTransformStone(func(e *evpath.Event) (*evpath.Event, error) {
		chunk, err := staging.DecodeChunk(e.Data.([]byte))
		if err != nil {
			return nil, fmt.Errorf("predata: replaying chunk from rank %d: %w",
				int(e.Attrs["writer"]), err)
		}
		return &evpath.Event{Attrs: e.Attrs, Data: chunk}, nil
	})
	if err != nil {
		return nil, stats, err
	}
	if err := decode.LinkTo(head); err != nil {
		return nil, stats, err
	}

	var submitErr error
	go func() {
		for _, rec := range recs {
			s.cfg.Tracer.Instant(trace.PhaseWalReplay, s.cfg.Endpoint.ID(), -1,
				rec.Timestep, int64(rec.Writer), int64(crc32.ChecksumIEEE(rec.Payload)))
			err := decode.Submit(&evpath.Event{
				Attrs: map[string]int64{"writer": int64(rec.Writer), "timestep": rec.Timestep},
				Data:  rec.Payload,
			})
			if err != nil {
				submitErr = err
				break
			}
		}
		if cerr := mgr.Close(); cerr != nil && submitErr == nil {
			submitErr = cerr
		}
		close(chunks)
	}()
	res, err := s.cfg.Engine.ProcessDump(s.cfg.Comm, chunks, ops, agg)
	stats.ProcessWall = time.Since(start)
	if submitErr != nil {
		return nil, stats, submitErr
	}
	if err != nil {
		return nil, stats, err
	}
	if cerr := s.commitDump(timestep); cerr != nil {
		return nil, stats, cerr
	}
	res.Degraded = res.Degraded || stats.Drops > 0 || stats.CorruptDrops > 0 || s.views.degradedAt(timestep)
	stats.Degraded = res.Degraded
	return res, stats, nil
}
