package trace

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// VerifyReport summarizes what Verify checked and what it found. A
// report with no Violations means every invariant held on every
// group the recording contained.
type VerifyReport struct {
	Events            int      // events inspected
	CollectiveGroups  int      // (dump, communicator) groups compared
	Collectives       int      // collective instants inspected
	ShuffleEdges      int      // (dump, operator) shuffle→reduce edges checked
	ReplayChecks      int      // (rank, dump) replay-before-reduce checks
	LeaseRanks        int      // ranks whose lease peak was bounded
	ScaleEpochs       int      // resize epochs cross-checked across ranks
	ChunkChecks       int      // dumps whose chunk coverage was checked across handoffs
	CorruptChecks     int      // corrupt-dropped (dump, writer) pairs quarantine-checked
	ExclusivityChecks int      // (dump, writer) pairs checked for at-most-once reduction across view changes
	HedgeChecks       int      // (rank, dump, writer) hedge races checked for resolution
	WALChecks         int      // (dump, writer) wal-replay events matched against journal appends
	CheckpointChecks  int      // journal truncations checked for a covering checkpoint
	TenantChecks      int      // serve objects checked for single-tenant access
	CacheChecks       int      // serve cache hits checked against invalidation epochs
	Violations        []string // human-readable invariant failures
}

// Verify checks runtime ordering invariants from a recording alone:
//
//  1. Collective-sequence equality — within each (dump, communicator)
//     group, every rank consumed the same ordered (sequence, op) list,
//     the runtime complement of the collectivecheck vet analyzer.
//  2. Shuffle happens-before — per (dump, operator), each rank's
//     Shuffle span ends before its Reduce span starts, and no rank
//     begins Reduce before every participant has entered Shuffle
//     (Alltoall cannot complete until all peers have sent).
//  3. Spill-replay-before-Reduce — per (rank, dump), every replayed
//     chunk is delivered before the first Reduce begins.
//  4. Lease-peak bound — per rank, the peak of budget-accounted bytes
//     never exceeds the admission ceiling plus one grant (the Overdraft
//     allowance). The admission ceiling is the capacity, except that a
//     single chunk larger than the whole budget is granted alone when
//     the accountant is idle — so when the largest observed grant
//     exceeds the capacity, the ceiling is that grant.
//  5. Resize-epoch agreement — every rank that recorded a scale epoch
//     agrees on its first dump and active-member mask, and ranks
//     outside the mask record no serving activity for dumps governed by
//     that epoch (retired and parked ranks are silent).
//  6. At-most-once reduction across view changes — on recordings
//     containing a membership view change (a resize epoch, a partition
//     heal, or a restart), no (dump, writer) chunk is engine-retired
//     more than once across all ranks and incarnations.
//  7. Chunk coverage across handoff — on recordings containing resize
//     epochs, every writer's chunk for every served dump is processed
//     somewhere, passed through raw, or accounted as dropped: nothing is
//     lost when shards and routes move between ranks.
//  8. Corruption quarantine — a (dump, writer) chunk abandoned as
//     corrupt (PhaseCorruptDrop) must never have been retired by any
//     rank's engine (PhaseChunk): damaged bytes cannot reach Reduce.
//     Every corrupt-drop must also carry at least one preceding CRC
//     detection — quarantine without evidence is a runtime bug.
//  9. Hedge resolution — per (rank, dump, writer), every hedged pull
//     launched (PhaseHedge) resolved its race (PhaseHedgeCancel, which
//     cancels the losing attempt), and no resolution appears without a
//     launch: hedge attempts cannot leak past the race.
//  10. WAL replay fidelity — on recordings containing a journal replay
//     (PhaseWalReplay), every replayed (dump, writer) chunk matches a
//     journal append (PhaseJournal) with the same payload checksum:
//     recovery re-enters exactly the bytes that were journaled, never
//     an invented or mutated chunk.
//  11. Checkpoint-before-truncate — per rank, every journal truncation
//     (PhaseWalTruncate) is preceded by a checkpoint (PhaseCheckpoint)
//     covering at least the dumps the truncation discarded: journal
//     bytes only disappear behind a durable checkpoint.
//  12. Tenant isolation — on serve recordings, every object (identified
//     by the hash of its tenant-qualified name, recorded in Seq at the
//     space boundary) is touched by exactly one tenant across ingest,
//     query, and cache events: a second tenant ID on the same object
//     means a query result crossed a namespace.
//  13. Cache coherence — per object, in time order, every cache hit's
//     entry epoch (Arg = the epoch the entry was filled under) is at
//     least the epoch installed by the latest invalidation that
//     strictly precedes the hit: no cached result is served for an
//     invalidated epoch. Cache events are recorded inside the cache's
//     critical section, so their timestamps are linearized.
//
// It returns an error when the recording is unusable (nil, empty, or
// lossy — dropped events could hide a violation) or when any
// invariant fails; the report carries the details either way.
func Verify(rec *Recording) (*VerifyReport, error) {
	if rec == nil {
		return nil, errors.New("trace: nil recording")
	}
	rep := &VerifyReport{Events: len(rec.Events)}
	if len(rec.Events) == 0 {
		return rep, errors.New("trace: empty recording")
	}
	if rec.Dropped > 0 {
		return rep, fmt.Errorf("trace: recording dropped %d events; cannot verify a lossy trace", rec.Dropped)
	}
	for i := range rec.Events {
		e := &rec.Events[i]
		if e.Kind == KindSpan && e.End < e.Start {
			rep.fail("event %d (%s rank %d): span ends %dns before it starts",
				i, e.Name(), e.Rank, e.Start-e.End)
		}
	}
	verifyCollectives(rec, rep)
	verifyShuffleEdges(rec, rep)
	verifyReplayOrder(rec, rep)
	verifyLeasePeaks(rec, rep)
	verifyScaleEpochs(rec, rep)
	verifyViewChanges(rec, rep)
	verifyCorruptionQuarantine(rec, rep)
	verifyHedgeResolution(rec, rep)
	verifyWalReplayFidelity(rec, rep)
	verifyCheckpointOrder(rec, rep)
	verifyTenantIsolation(rec, rep)
	verifyCacheCoherence(rec, rep)
	if len(rep.Violations) > 0 {
		return rep, fmt.Errorf("trace: %d invariant violation(s):\n  %s",
			len(rep.Violations), strings.Join(rep.Violations, "\n  "))
	}
	return rep, nil
}

func (r *VerifyReport) fail(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// collKey groups collective instants: ranks are only comparable when
// they called into the same communicator during the same dump.
type collKey struct {
	dump int64
	comm int64
}

// collCall is one consumed collective sequence number.
type collCall struct {
	seq int64
	op  int32
}

// verifyCollectives checks that within each (dump, communicator)
// group every participating rank recorded the identical ordered
// (seq, op) list — the trace-level statement that no rank skipped,
// reordered, or substituted a collective.
func verifyCollectives(rec *Recording, rep *VerifyReport) {
	groups := map[collKey]map[int32][]collCall{}
	for i := range rec.Events {
		e := &rec.Events[i]
		if e.Phase != PhaseCollective {
			continue
		}
		rep.Collectives++
		k := collKey{dump: e.Dump, comm: e.Arg}
		if groups[k] == nil {
			groups[k] = map[int32][]collCall{}
		}
		groups[k][e.Rank] = append(groups[k][e.Rank], collCall{seq: e.Seq, op: e.Endpoint})
	}
	keys := make([]collKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dump != keys[j].dump {
			return keys[i].dump < keys[j].dump
		}
		return keys[i].comm < keys[j].comm
	})
	for _, k := range keys {
		byRank := groups[k]
		rep.CollectiveGroups++
		ranks := make([]int32, 0, len(byRank))
		for r := range byRank {
			// Events are time-sorted globally; a rank's calls into one
			// communicator are sequential, so sort by seq to get its
			// program order regardless of clock ties.
			calls := byRank[r]
			sort.Slice(calls, func(i, j int) bool {
				if calls[i].seq != calls[j].seq {
					return calls[i].seq < calls[j].seq
				}
				return calls[i].op < calls[j].op
			})
			ranks = append(ranks, r)
		}
		sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
		ref := byRank[ranks[0]]
		for _, r := range ranks[1:] {
			if !sameCalls(ref, byRank[r]) {
				rep.fail("dump %d comm %d: rank %d collective sequence %s differs from rank %d's %s",
					k.dump, k.comm, r, fmtCalls(byRank[r]), ranks[0], fmtCalls(ref))
			}
		}
	}
}

func sameCalls(a, b []collCall) bool {
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

func fmtCalls(calls []collCall) string {
	parts := make([]string, len(calls))
	for i, c := range calls {
		parts[i] = fmt.Sprintf("%d:%s", c.seq, CollName(c.op))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// opKey identifies one operator's shuffle/reduce pair within a dump.
type opKey struct {
	dump int64
	op   int64
}

// verifyShuffleEdges checks the happens-before structure of each
// shuffle: per rank the Shuffle span must close before Reduce opens,
// and across ranks no Reduce may start before the latest participant
// entered its Shuffle — Alltoall only completes once every peer has
// contributed, so an earlier Reduce means the trace (or the runtime)
// lied about the exchange.
func verifyShuffleEdges(rec *Recording, rep *VerifyReport) {
	type window struct {
		shuffleStart map[int32]int64
		shuffleEnd   map[int32]int64
		reduceStart  map[int32]int64
	}
	groups := map[opKey]*window{}
	for i := range rec.Events {
		e := &rec.Events[i]
		if e.Kind != KindSpan || (e.Phase != PhaseShuffle && e.Phase != PhaseReduce) {
			continue
		}
		k := opKey{dump: e.Dump, op: e.Seq}
		w := groups[k]
		if w == nil {
			w = &window{shuffleStart: map[int32]int64{}, shuffleEnd: map[int32]int64{}, reduceStart: map[int32]int64{}}
			groups[k] = w
		}
		if e.Phase == PhaseShuffle {
			w.shuffleStart[e.Rank] = e.Start
			w.shuffleEnd[e.Rank] = e.End
		} else {
			w.reduceStart[e.Rank] = e.Start
		}
	}
	keys := make([]opKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dump != keys[j].dump {
			return keys[i].dump < keys[j].dump
		}
		return keys[i].op < keys[j].op
	})
	for _, k := range keys {
		w := groups[k]
		var latestShuffleStart int64 = -1
		var latestRank int32 = -1
		for r, s := range w.shuffleStart {
			if _, ok := w.reduceStart[r]; !ok {
				continue // rank crashed or shed before Reduce; no edge
			}
			if s > latestShuffleStart {
				latestShuffleStart, latestRank = s, r
			}
		}
		for r, rs := range w.reduceStart {
			se, ok := w.shuffleEnd[r]
			if !ok {
				continue // reduce without a recorded shuffle (degraded path)
			}
			rep.ShuffleEdges++
			if se > rs {
				rep.fail("dump %d op %d rank %d: shuffle ends at %dns after reduce starts at %dns",
					k.dump, k.op, r, se, rs)
			}
			if latestShuffleStart >= 0 && rs < latestShuffleStart {
				rep.fail("dump %d op %d rank %d: reduce starts at %dns before rank %d entered shuffle at %dns",
					k.dump, k.op, r, rs, latestRank, latestShuffleStart)
			}
		}
	}
}

// verifyReplayOrder checks that on every rank, all spilled chunks of a
// dump were replayed before that dump's first Reduce began — the
// lossless-spill contract: nothing reduces until the spill segment has
// been drained back into the chunk stream.
func verifyReplayOrder(rec *Recording, rep *VerifyReport) {
	type rd struct {
		rank int32
		dump int64
	}
	lastReplay := map[rd]int64{}
	firstReduce := map[rd]int64{}
	for i := range rec.Events {
		e := &rec.Events[i]
		k := rd{rank: e.Rank, dump: e.Dump}
		switch {
		case e.Phase == PhaseReplay:
			if e.Start > lastReplay[k] {
				lastReplay[k] = e.Start
			}
		case e.Phase == PhaseReduce && e.Kind == KindSpan:
			if cur, ok := firstReduce[k]; !ok || e.Start < cur {
				firstReduce[k] = e.Start
			}
		}
	}
	keys := make([]rd, 0, len(lastReplay))
	for k := range lastReplay {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rank != keys[j].rank {
			return keys[i].rank < keys[j].rank
		}
		return keys[i].dump < keys[j].dump
	})
	for _, k := range keys {
		reduce, ok := firstReduce[k]
		if !ok {
			continue // dump never reduced on this rank (no operators)
		}
		rep.ReplayChecks++
		if lastReplay[k] > reduce {
			rep.fail("rank %d dump %d: replay at %dns after first reduce at %dns",
				k.rank, k.dump, lastReplay[k], reduce)
		}
	}
}

// servingPhase reports whether a phase means the rank actively served
// dump data — the activity that must cease on ranks outside a resize
// epoch's membership. Collectives, drains, and scale bookkeeping are
// deliberately excluded: parked ranks still join membership collectives
// and a retiring rank drains after its last served dump.
func servingPhase(p Phase) bool {
	switch p {
	case PhaseGather, PhaseAggregate, PhaseInitialize, PhaseMap, PhaseCombine,
		PhaseShuffle, PhaseReduce, PhaseFinalize, PhaseChunk, PhasePull:
		return true
	}
	return false
}

// verifyScaleEpochs checks the membership contract of elastic resizes:
// every rank recording a scale epoch agrees on its first dump and
// active-member bitmask, the mask's population matches the announced
// active count, and ranks outside the mask record no serving events for
// dumps the epoch governs — a retired or parked rank is silent.
func verifyScaleEpochs(rec *Recording, rep *VerifyReport) {
	type view struct {
		dump  int64
		mask  int64
		count int64
	}
	epochs := map[int64]map[int32]view{}
	for i := range rec.Events {
		e := &rec.Events[i]
		if e.Phase != PhaseScaleEpoch {
			continue
		}
		v := view{dump: e.Dump, mask: e.Arg, count: int64(e.Endpoint)}
		if epochs[e.Seq] == nil {
			epochs[e.Seq] = map[int32]view{}
		}
		if prev, dup := epochs[e.Seq][e.Rank]; dup {
			if prev != v {
				rep.fail("scale epoch %d: rank %d recorded it twice with different views", e.Seq, e.Rank)
			}
			continue
		}
		epochs[e.Seq][e.Rank] = v
	}
	if len(epochs) == 0 {
		return
	}
	seqs := make([]int64, 0, len(epochs))
	for s := range epochs {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	type span struct {
		firstDump int64
		seq       int64
		mask      int64
	}
	spans := make([]span, 0, len(seqs))
	var prev span
	for i, s := range seqs {
		byRank := epochs[s]
		rep.ScaleEpochs++
		ranks := make([]int32, 0, len(byRank))
		for r := range byRank {
			ranks = append(ranks, r)
		}
		sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
		ref := byRank[ranks[0]]
		for _, r := range ranks[1:] {
			if byRank[r] != ref {
				rep.fail("scale epoch %d: rank %d sees (dump %d, mask %#x, %d active), rank %d sees (dump %d, mask %#x, %d active)",
					s, r, byRank[r].dump, byRank[r].mask, byRank[r].count,
					ranks[0], ref.dump, ref.mask, ref.count)
			}
		}
		if got := popcount(ref.mask); got != ref.count {
			rep.fail("scale epoch %d: active mask %#x holds %d ranks but %d were announced",
				s, ref.mask, got, ref.count)
		}
		cur := span{firstDump: ref.dump, seq: s, mask: ref.mask}
		if i > 0 && cur.firstDump < prev.firstDump {
			rep.fail("scale epoch %d starts at dump %d, before epoch %d's dump %d",
				s, cur.firstDump, prev.seq, prev.firstDump)
		}
		spans = append(spans, cur)
		prev = cur
	}
	if len(rep.Violations) > 0 {
		return // epoch table is inconsistent; silence checks would mislead
	}
	// Silence: serving events on staging ranks must fall inside the
	// governing epoch's mask. Violations deduplicate per (rank, epoch,
	// phase) so one runaway rank cannot flood the report.
	flagged := map[[3]int64]bool{}
	for i := range rec.Events {
		e := &rec.Events[i]
		if !servingPhase(e.Phase) || e.Dump < 0 {
			continue
		}
		idx := int(e.Rank) - rec.NumCompute
		if idx < 0 || idx > 62 {
			continue
		}
		g := sort.Search(len(spans), func(j int) bool { return spans[j].firstDump > e.Dump })
		if g == 0 {
			continue // dump precedes the first recorded epoch
		}
		sp := spans[g-1]
		if sp.mask&(1<<idx) != 0 {
			continue
		}
		key := [3]int64{int64(e.Rank), sp.seq, int64(e.Phase)}
		if flagged[key] {
			continue
		}
		flagged[key] = true
		rep.fail("scale epoch %d (mask %#x): rank %d is outside the active set but recorded %s at dump %d",
			sp.seq, sp.mask, e.Rank, e.Phase, e.Dump)
	}
}

func popcount(m int64) int64 {
	var n int64
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}

// verifyViewChanges checks the chunk accounting of membership view
// changes. Routes move whenever a view changes — a resize epoch, a
// partition fence and heal, a restart or crashall rebuild — so on any
// recording containing one, each (dump, writer) chunk must be
// engine-retired (PhaseChunk) at most once across all ranks and
// incarnations: a rank rejoining never re-processes work another side
// already reduced, and a recovered incarnation's journal dedup never
// re-reduces a committed dump. On recordings with resize epochs every
// chunk must also be covered — processed, passed through raw
// (PhasePass), or explicitly dropped (PhaseDrop, PhaseCorruptDrop) — or
// it was lost across a handoff. Coverage stays gated on resize epochs:
// other pipelines may filter chunks without tracing the decision.
func verifyViewChanges(rec *Recording, rep *VerifyReport) {
	type dw struct {
		dump   int64
		writer int64
	}
	var scaled, healed, restarted bool
	processed := map[dw]int{}
	covered := map[int64]map[int64]bool{}
	mark := func(dump, writer int64) {
		if covered[dump] == nil {
			covered[dump] = map[int64]bool{}
		}
		covered[dump][writer] = true
	}
	for i := range rec.Events {
		e := &rec.Events[i]
		switch e.Phase {
		case PhaseScaleEpoch:
			scaled = true
		case PhaseHeal:
			healed = true
		case PhaseRestart:
			restarted = true
		}
		if e.Dump < 0 {
			continue
		}
		switch e.Phase {
		case PhaseChunk:
			processed[dw{e.Dump, e.Seq}]++
			mark(e.Dump, e.Seq)
		case PhasePass, PhaseDrop:
			mark(e.Dump, int64(e.Endpoint))
		case PhaseCorruptDrop:
			mark(e.Dump, e.Seq)
		}
	}
	var causes []string
	if scaled {
		causes = append(causes, "a resize handoff")
	}
	if healed {
		causes = append(causes, "a partition heal")
	}
	if restarted {
		causes = append(causes, "a restart (journal dedup failed)")
	}
	if len(causes) == 0 {
		return
	}
	keys := make([]dw, 0, len(processed))
	for k := range processed {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dump != keys[j].dump {
			return keys[i].dump < keys[j].dump
		}
		return keys[i].writer < keys[j].writer
	})
	for _, k := range keys {
		rep.ExclusivityChecks++
		if n := processed[k]; n > 1 {
			rep.fail("dump %d: writer %d's chunk processed %d times across %s — double-reduced",
				k.dump, k.writer, n, strings.Join(causes, " or "))
		}
	}
	if !scaled || rec.NumCompute <= 0 {
		return
	}
	dumps := make([]int64, 0, len(covered))
	for d := range covered {
		dumps = append(dumps, d)
	}
	sort.Slice(dumps, func(i, j int) bool { return dumps[i] < dumps[j] })
	for _, d := range dumps {
		rep.ChunkChecks++
		for w := int64(0); w < int64(rec.NumCompute); w++ {
			if !covered[d][w] {
				rep.fail("dump %d: writer %d's chunk neither processed, passed, nor dropped — lost across handoff", d, w)
			}
		}
	}
}

// verifyCorruptionQuarantine checks end-to-end integrity's trace-level
// contract: a (dump, writer) chunk the staging side abandoned as corrupt
// (every re-pull delivered damaged bytes) must never appear as
// engine-retired anywhere — PhaseChunk after PhaseCorruptDrop for the
// same chunk means corrupted bytes reached Reduce. Each corrupt-drop
// must also be backed by at least one CRC detection for the same chunk:
// the shed path may only fire on verified evidence.
func verifyCorruptionQuarantine(rec *Recording, rep *VerifyReport) {
	type dw struct {
		dump   int64
		writer int64
	}
	processed := map[dw]bool{}
	detected := map[dw]bool{}
	dropped := map[dw]bool{}
	for i := range rec.Events {
		e := &rec.Events[i]
		if e.Dump < 0 {
			continue
		}
		switch e.Phase {
		case PhaseChunk:
			processed[dw{e.Dump, e.Seq}] = true
		case PhaseCorruptDetect:
			detected[dw{e.Dump, e.Seq}] = true
		case PhaseCorruptDrop:
			dropped[dw{e.Dump, e.Seq}] = true
		}
	}
	if len(dropped) == 0 {
		return
	}
	keys := make([]dw, 0, len(dropped))
	for k := range dropped {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dump != keys[j].dump {
			return keys[i].dump < keys[j].dump
		}
		return keys[i].writer < keys[j].writer
	})
	for _, k := range keys {
		rep.CorruptChecks++
		if processed[k] {
			rep.fail("dump %d: writer %d's chunk was corrupt-dropped yet engine-retired — corrupted bytes reached Reduce",
				k.dump, k.writer)
		}
		if !detected[k] {
			rep.fail("dump %d: writer %d's chunk was corrupt-dropped without any recorded CRC detection",
				k.dump, k.writer)
		}
	}
}

// verifyHedgeResolution checks that every hedged-pull race resolved:
// per (rank, dump, writer), hedge launches (PhaseHedge) and race
// resolutions (PhaseHedgeCancel — the point where the losing attempt's
// context is cancelled and joined) pair up exactly, and no resolution
// appears without a launch. An unresolved launch means a pull attempt
// may have outlived its race.
func verifyHedgeResolution(rec *Recording, rep *VerifyReport) {
	type key struct {
		rank   int32
		dump   int64
		writer int64
	}
	launched := map[key]int{}
	resolved := map[key]int{}
	for i := range rec.Events {
		e := &rec.Events[i]
		switch e.Phase {
		case PhaseHedge:
			launched[key{e.Rank, e.Dump, e.Seq}]++
		case PhaseHedgeCancel:
			resolved[key{e.Rank, e.Dump, e.Seq}]++
		}
	}
	if len(launched) == 0 && len(resolved) == 0 {
		return
	}
	keys := make([]key, 0, len(launched)+len(resolved))
	for k := range launched {
		keys = append(keys, k)
	}
	for k := range resolved {
		if _, ok := launched[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rank != keys[j].rank {
			return keys[i].rank < keys[j].rank
		}
		if keys[i].dump != keys[j].dump {
			return keys[i].dump < keys[j].dump
		}
		return keys[i].writer < keys[j].writer
	})
	for _, k := range keys {
		rep.HedgeChecks++
		if launched[k] != resolved[k] {
			rep.fail("rank %d dump %d writer %d: %d hedge launches but %d resolutions — a hedged attempt outlived its race",
				k.rank, k.dump, k.writer, launched[k], resolved[k])
		}
	}
}

// verifyWalReplayFidelity applies to recordings that contain a journal
// replay: every chunk recovery re-enters into the pipeline
// (PhaseWalReplay, Arg = payload crc32) must match a journal append
// (PhaseJournal) for the same (dump, writer) with the same checksum.
// A replay without a matching append means recovery fabricated bytes;
// a checksum mismatch means the journal round trip mutated them.
func verifyWalReplayFidelity(rec *Recording, rep *VerifyReport) {
	type dw struct {
		dump   int64
		writer int64
	}
	journaled := map[dw]map[int64]bool{}
	var replays []int
	for i := range rec.Events {
		e := &rec.Events[i]
		switch e.Phase {
		case PhaseJournal:
			k := dw{e.Dump, e.Seq}
			if journaled[k] == nil {
				journaled[k] = map[int64]bool{}
			}
			journaled[k][e.Arg] = true
		case PhaseWalReplay:
			replays = append(replays, i)
		}
	}
	for _, i := range replays {
		e := &rec.Events[i]
		rep.WALChecks++
		k := dw{e.Dump, e.Seq}
		if len(journaled[k]) == 0 {
			rep.fail("dump %d: writer %d's chunk replayed from the journal without any recorded append",
				e.Dump, e.Seq)
			continue
		}
		if !journaled[k][e.Arg] {
			rep.fail("dump %d: writer %d's replayed chunk checksum %#x matches no journal append",
				e.Dump, e.Seq, uint32(e.Arg))
		}
	}
}

// verifyCheckpointOrder checks the durability ordering of journal
// compaction: per rank, in time order, every truncation (PhaseWalTruncate,
// Seq = first dump kept) must be preceded by a checkpoint
// (PhaseCheckpoint, Seq = first dump not covered) that covers at least
// everything the truncation discards — records may only leave the
// journal once a durable checkpoint subsumes them.
func verifyCheckpointOrder(rec *Recording, rep *VerifyReport) {
	type mark struct {
		start int64
		phase Phase
		seq   int64
	}
	byRank := map[int32][]mark{}
	for i := range rec.Events {
		e := &rec.Events[i]
		if e.Phase != PhaseCheckpoint && e.Phase != PhaseWalTruncate {
			continue
		}
		byRank[e.Rank] = append(byRank[e.Rank], mark{start: e.Start, phase: e.Phase, seq: e.Seq})
	}
	ranks := make([]int32, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	for _, r := range ranks {
		marks := byRank[r]
		sort.SliceStable(marks, func(i, j int) bool { return marks[i].start < marks[j].start })
		covered := int64(-1) // highest first-uncovered dump checkpointed so far
		for _, m := range marks {
			if m.phase == PhaseCheckpoint {
				if m.seq > covered {
					covered = m.seq
				}
				continue
			}
			rep.CheckpointChecks++
			if covered < 0 {
				rep.fail("rank %d: journal truncated (keeping dumps >= %d) with no prior checkpoint", r, m.seq)
				continue
			}
			if m.seq > covered {
				rep.fail("rank %d: journal truncated keeping dumps >= %d but the latest checkpoint covers only dumps < %d",
					r, m.seq, covered)
			}
		}
	}
}

// serveTenantPhase reports whether a phase carries a (tenant, object)
// pair from the serve daemon: Endpoint is the tenant ID and Seq the
// hash of the tenant-qualified object name, both recorded at the
// DataSpaces boundary.
func serveTenantPhase(p Phase) bool {
	switch p {
	case PhaseServeIngest, PhaseServeQuery, PhaseCacheHit, PhaseCacheFill, PhaseCacheInvalidate:
		return true
	}
	return false
}

// verifyTenantIsolation checks the serve daemon's namespace contract:
// an object hash that appears with two different tenant IDs was read or
// written across a namespace boundary. The hash is computed from the
// tenant-qualified name at the space boundary, so a namespace-crossing
// bug necessarily shows a second tenant on one object.
func verifyTenantIsolation(rec *Recording, rep *VerifyReport) {
	owners := map[int64]int32{}
	flagged := map[int64]bool{}
	objs := []int64{}
	for i := range rec.Events {
		e := &rec.Events[i]
		if !serveTenantPhase(e.Phase) {
			continue
		}
		owner, seen := owners[e.Seq]
		if !seen {
			owners[e.Seq] = e.Endpoint
			objs = append(objs, e.Seq)
			continue
		}
		if e.Endpoint != owner && !flagged[e.Seq] {
			flagged[e.Seq] = true
			rep.fail("object %#x: touched by tenant %d and tenant %d — query result crossed a namespace (%s at %dns)",
				uint64(e.Seq), owner, e.Endpoint, e.Phase, e.Start)
		}
	}
	rep.TenantChecks += len(objs)
}

// verifyCacheCoherence checks the serve result cache's epoch protocol:
// per object, every cache hit must carry a fill epoch at least as new
// as the epoch installed by the latest invalidation strictly before the
// hit. A smaller epoch means the cache served bytes that a Put or an
// eviction had already superseded. Only invalidations strictly before
// the hit count: the cache records both inside its critical section, so
// equal timestamps cannot order an invalidation ahead of a hit.
func verifyCacheCoherence(rec *Recording, rep *VerifyReport) {
	type mark struct {
		start int64
		epoch int64
	}
	// Epoch counters live per (object, version) — the Dump field of
	// cache events carries the version — so hits and invalidations are
	// only comparable within that pair. Keying on the object alone would
	// flag a fresh version's epoch-1 hits against a sibling version's
	// eviction epoch.
	type objVerKey struct {
		obj     int64
		version int64
	}
	invals := map[objVerKey][]mark{}
	hits := map[objVerKey][]mark{}
	keys := []objVerKey{}
	for i := range rec.Events {
		e := &rec.Events[i]
		switch e.Phase {
		case PhaseCacheInvalidate:
			k := objVerKey{obj: e.Seq, version: e.Dump}
			if invals[k] == nil && hits[k] == nil {
				keys = append(keys, k)
			}
			invals[k] = append(invals[k], mark{start: e.Start, epoch: e.Arg})
		case PhaseCacheHit:
			k := objVerKey{obj: e.Seq, version: e.Dump}
			if invals[k] == nil && hits[k] == nil {
				keys = append(keys, k)
			}
			hits[k] = append(hits[k], mark{start: e.Start, epoch: e.Arg})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].obj != keys[j].obj {
			return keys[i].obj < keys[j].obj
		}
		return keys[i].version < keys[j].version
	})
	for _, k := range keys {
		inv := invals[k]
		sort.Slice(inv, func(i, j int) bool { return inv[i].start < inv[j].start })
		for _, h := range hits[k] {
			rep.CacheChecks++
			// Latest invalidation strictly before the hit.
			var floor int64 = -1
			var floorAt int64
			for _, m := range inv {
				if m.start < h.start && m.epoch > floor {
					floor, floorAt = m.epoch, m.start
				}
			}
			if floor >= 0 && h.epoch < floor {
				rep.fail("object %#x version %d: cache hit at %dns served epoch %d after invalidation at %dns installed epoch %d — stale result",
					uint64(k.obj), k.version, h.start, h.epoch, floorAt, floor)
			}
		}
	}
}

// verifyLeasePeaks checks the budget accountant's bound per rank: the
// highest used-after value any lease movement observed must stay
// within the admission ceiling plus the largest single grant (the
// one-chunk Overdraft allowance, serialized on the spill slot). The
// ceiling is the capacity unless a single grant exceeds it — the
// idle-accountant escape admits one oversized chunk alone, so with
// such chunks the bound is largest grant + largest grant. The
// used-after value is recorded inside the budget's own critical
// section, so this needs no clock reasoning.
func verifyLeasePeaks(rec *Recording, rep *VerifyReport) {
	caps := map[int32]int64{}
	peaks := map[int32]int64{}
	grants := map[int32]int64{}
	for i := range rec.Events {
		e := &rec.Events[i]
		switch e.Phase {
		case PhaseBudgetCap:
			if e.Arg > caps[e.Rank] {
				caps[e.Rank] = e.Arg
			}
		case PhaseLease:
			if e.Seq > peaks[e.Rank] {
				peaks[e.Rank] = e.Seq
			}
			if e.Arg > grants[e.Rank] {
				grants[e.Rank] = e.Arg
			}
		}
	}
	ranks := make([]int32, 0, len(caps))
	for r := range caps {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	for _, r := range ranks {
		rep.LeaseRanks++
		ceiling := caps[r]
		if grants[r] > ceiling {
			ceiling = grants[r]
		}
		if limit := ceiling + grants[r]; peaks[r] > limit {
			rep.fail("rank %d: lease peak %d B exceeds admission ceiling %d B + largest grant %d B (budget %d B)",
				r, peaks[r], ceiling, grants[r], caps[r])
		}
	}
}
