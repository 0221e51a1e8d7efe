package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"predata/internal/bench"
	"predata/internal/ffs"
	"predata/internal/staging"
	"predata/internal/trace"
	"predata/internal/wal"
)

// gtcAccountingTolerance bounds the share of a staging rank's time per
// dump that the attributed layers may leave uncovered. The attributed
// layers are gather, aggregate and process (DumpStats) plus, on durable
// runs, the dump-boundary journal commit and checkpoint (from the
// recording). What remains has no public hook: the pipeline's own loop
// between dumps and the clock reads around each phase.
const gtcAccountingTolerance = 0.05

// replayPasses is how many times each replay walks its inputs; rates
// are the median over passes.
const replayPasses = 5

var stagingPhases = []string{"initialize", "map", "combine", "shuffle", "reduce", "finalize"}

// zeroLayers reports every per-layer metric as 0, the value of a layer
// the workload does not use; workloads overwrite the ones they measure.
func (r *report) zeroLayers() {
	for _, d := range perLayer {
		r.set(d.name, 0, "layer not on this workload's path")
	}
}

// gtcLayerSums accumulates the per-layer samples of the traced rounds
// from the result structs RunPipeline returns, the operator timers and
// the flight recording, so a round's results can be dropped as soon as
// it ends.
type gtcLayerSums struct {
	partial, gather, aggregate, process, unattr []float64
	pullMs, recvMs, shuffleVals                 []float64
	journalShare, walBytes                      []float64
	phases, opMap, opReduce                     map[string][]float64
	accounted, measured, throttle               time.Duration
	pulled, steadyBytes, collectives            float64
	peak, spilled, shed, retries, dropped       int64
	steadyDumps                                 int
}

func newGTCLayerSums() *gtcLayerSums {
	return &gtcLayerSums{phases: map[string][]float64{}, opMap: map[string][]float64{}, opReduce: map[string][]float64{}}
}

// add folds in one traced round.
func (a *gtcLayerSums) add(g *gtcRound) {
	res := g.res
	a.steadyDumps += gtcSteady
	a.steadyBytes += gtcSteady * gtcDumpBytes
	a.partial = append(a.partial, g.partialUs...)
	b := newBoundaries(g.rec)
	for rank := 0; rank < gtcStaging; rank++ {
		for k := gtcWarmup; k < gtcDumps; k++ {
			st := res.StagingStats[rank][k]
			sr := res.StagingResults[rank][k]
			a.gather = append(a.gather, ms(st.GatherWall))
			a.aggregate = append(a.aggregate, ms(st.AggregateWall))
			a.process = append(a.process, ms(st.ProcessWall))
			for _, ph := range stagingPhases {
				a.phases[ph] = append(a.phases[ph], ms(sr.Breakdown.Get(ph)))
			}
			// Staging time for dump k on this rank runs from the end of
			// dump k-1's Finalize to the end of dump k's; the journal work
			// between them belongs to dump k-1.
			prev, cur := b.at(rank, k-1), b.at(rank, k)
			meas := time.Duration(cur.finalizeEnd - prev.finalizeEnd)
			blocking := st.GatherWall + st.AggregateWall + st.ProcessWall + prev.journal()
			a.accounted += blocking
			a.measured += meas
			a.unattr = append(a.unattr, ms(meas-blocking))
			a.pulled += float64(st.BytesPulled)
			if ov := st.Overload; ov != nil {
				a.throttle += ov.ThrottleWait
				a.peak = max(a.peak, ov.PeakBytes)
				a.spilled += ov.SpilledChunks
				a.shed += ov.ShedChunks
			}
		}
	}
	for k := gtcWarmup; k < gtcDumps; k++ {
		emitted := 0
		for rank := 0; rank < gtcStaging; rank++ {
			for _, n := range res.StagingResults[rank][k].OperatorEmitted {
				emitted += n
			}
		}
		a.shuffleVals = append(a.shuffleVals, float64(emitted))
		for _, t := range g.timers[k] {
			a.opMap[t.Name()] = append(a.opMap[t.Name()], ms(time.Duration(t.mapNs.Load())))
			a.opReduce[t.Name()] = append(a.opReduce[t.Name()], ms(time.Duration(t.reduceNs.Load())))
		}
	}
	if f := res.Fault; f != nil {
		a.retries += f.Retries
		a.journalShare = append(a.journalShare, f.JournalWall.Seconds()/(gtcStaging*g.wall.Seconds()))
		a.walBytes = append(a.walBytes, float64(f.WalBytes)/(gtcDumps*gtcDumpBytes))
	}
	a.dropped += g.rec.Dropped
	p, rc, coll := traceSpans(g.rec)
	a.pullMs = append(a.pullMs, p...)
	a.recvMs = append(a.recvMs, rc...)
	a.collectives += coll
}

// report sets the per-layer metrics, including the tracing overhead
// from the paired untraced and traced rounds, and runs the replays of
// each layer's public API on the inputs the workload fed it.
func (a *gtcLayerSums) report(cfg runConfig, w *gtcWorkload, in *gtcInputs, rounds []*gtcRound, r *report) {
	r.zeroLayers()
	var plain, traced []float64 // steady wall per dump, ms
	for _, g := range rounds {
		if !g.ok {
			continue
		}
		if g.traced {
			traced = append(traced, ms(g.steadyWall)/gtcSteady)
		} else {
			plain = append(plain, ms(g.steadyWall)/gtcSteady)
		}
	}
	r.set("trace.dropped", float64(a.dropped), "events lost by the flight recorder over all traced rounds")
	if len(plain) > 0 && len(traced) > 0 {
		r.set("trace.overhead_frac", median(traced)/median(plain)-1,
			fmt.Sprintf("steady wall per dump, median of %d traced / %d untraced rounds, minus 1", len(traced), len(plain)))
	}
	if a.steadyDumps == 0 {
		return
	}
	steadyDumps := float64(a.steadyDumps)
	r.set("predata.partial_us", median(a.partial), "wrapped MinMaxPartial hook, per write")
	r.set("predata.gather_ms", median(a.gather), "GatherWall per (rank, dump): waiting for writers' fetch requests")
	r.set("predata.aggregate_ms", median(a.aggregate), "AggregateWall per (rank, dump)")
	r.set("predata.process_ms", median(a.process), "ProcessWall per (rank, dump): pull + decode + engine")
	r.set("predata.retries", float64(a.retries), "FaultReport.Retries over traced rounds")
	share := a.accounted.Seconds() / a.measured.Seconds()
	r.set("predata.accounted_frac", share, "(gather + aggregate + process + journal commit) / staging time between Finalize spans")
	r.set("predata.unattributed_ms", median(a.unattr), "staging time per (rank, dump) no layer accounts for")
	r.check("layer accounting", boolErr(share >= 1-gtcAccountingTolerance && share <= 1+gtcAccountingTolerance,
		"attributed layers cover %.3f of staging time, want 1 within %.2f", share, gtcAccountingTolerance))
	for _, ph := range stagingPhases {
		r.set("staging."+ph+"_ms", median(a.phases[ph]), "engine Breakdown per (rank, dump)")
	}
	r.set("staging.shuffle_values", median(a.shuffleVals), "OperatorEmitted summed over operators and ranks, per dump")
	for name, metric := range map[string]string{"sort": "ops.sort", "histogram": "ops.histogram", "histogram2d": "ops.histogram2d"} {
		if xs, ok := a.opMap[name]; ok {
			r.set(metric+".map_ms", median(xs), "operator wrapper: Map time per (rank, dump), summed over workers")
			if name == "sort" {
				r.set(metric+".reduce_ms", median(a.opReduce[name]), "operator wrapper: Reduce time per (rank, dump)")
			}
		}
	}
	r.set("fabric.pull_ms", median(a.pullMs), "pull span time per (staging rank, dump)")
	r.set("fabric.recv_ctl_wait_ms", median(a.recvMs), "recv-ctl span time per (staging rank, dump)")
	r.set("fabric.bytes_per_input_byte", a.pulled/a.steadyBytes, "BytesPulled / raw particle bytes")
	r.set("mpi.collectives_per_dump", a.collectives/steadyDumps, "collective instants per steady dump, all staging ranks")
	if w.durable {
		r.set("flowctl.throttle_wait_ms", ms(a.throttle)/steadyDumps, "admission throttle wait per dump, all ranks")
		r.set("flowctl.peak_mb", float64(a.peak)/1e6, "highest accounted bytes on any staging rank")
		r.set("flowctl.spilled_chunks", float64(a.spilled), "chunks spilled to disk (wasted work)")
		r.set("flowctl.shed_chunks", float64(a.shed), "chunks withheld from optional operators (wasted work)")
		r.set("wal.journal_share", median(a.journalShare), "JournalWall / (staging ranks x round wall)")
		r.set("wal.bytes_per_input_byte", median(a.walBytes), "journal bytes / raw particle bytes")
	}

	sealed := replayCodec(in, r)
	if w.durable {
		replayWAL(cfg, sealed, r)
	}
}

// dumpBoundary is one staging rank's end of one dump in the recording's
// clock: when its Finalize span ended, and when the journal commit and
// checkpoint that follow it were done (0 without a journal).
type dumpBoundary struct {
	finalizeEnd, journalEnd int64
}

func (d dumpBoundary) journal() time.Duration {
	if d.journalEnd < d.finalizeEnd {
		return 0
	}
	return time.Duration(d.journalEnd - d.finalizeEnd)
}

type boundaries map[[2]int64]dumpBoundary // (world rank, dump)

func newBoundaries(rec *trace.Recording) boundaries {
	b := boundaries{}
	for i := range rec.Events {
		e := &rec.Events[i]
		k := [2]int64{int64(e.Rank), e.Dump}
		d := b[k]
		switch e.Phase {
		case trace.PhaseFinalize:
			d.finalizeEnd = max(d.finalizeEnd, e.End)
		case trace.PhaseWalCommit, trace.PhaseCheckpoint, trace.PhaseWalTruncate:
			d.journalEnd = max(d.journalEnd, e.End)
		default:
			continue
		}
		b[k] = d
	}
	return b
}

// at looks a boundary up by staging index, which is the world rank
// less the writers in front of it.
func (b boundaries) at(stagingRank, dump int) dumpBoundary {
	return b[[2]int64{int64(gtcWriters + stagingRank), int64(dump)}]
}

// traceSpans reads one recording: per (staging rank, steady dump) pull
// and recv-ctl span time, and the number of collective instants in
// steady dumps. Pull and recv-ctl spans have no child spans, so their
// durations are their self time.
func traceSpans(rec *trace.Recording) (pullMs, recvMs []float64, collectives float64) {
	type key struct {
		rank int32
		dump int64
	}
	pull := map[key]int64{}
	recv := map[key]int64{}
	steady := func(d int64) bool { return d >= gtcWarmup && d < gtcDumps }
	for i := range rec.Events {
		e := &rec.Events[i]
		if !steady(e.Dump) {
			continue
		}
		switch {
		case e.Kind == trace.KindSpan && e.Phase == trace.PhasePull:
			pull[key{e.Rank, e.Dump}] += e.End - e.Start
		case e.Kind == trace.KindSpan && e.Phase == trace.PhaseRecvCtl && e.Rank >= gtcWriters:
			recv[key{e.Rank, e.Dump}] += e.End - e.Start
		case e.Phase == trace.PhaseCollective:
			collectives++
		}
	}
	for rank := int32(gtcWriters); rank < gtcWriters+gtcStaging; rank++ {
		for d := int64(gtcWarmup); d < gtcDumps; d++ {
			pullMs = append(pullMs, ms(time.Duration(pull[key{rank, d}])))
			recvMs = append(recvMs, ms(time.Duration(recv[key{rank, d}])))
		}
	}
	return pullMs, recvMs, collectives
}

// packedChunk builds the record Client.Write encodes for one writer:
// the particle array plus the reserved rank and timestep fields.
func packedChunk(in *gtcInputs, set, writer int) (*ffs.Schema, ffs.Record) {
	schema := &ffs.Schema{
		Name: bench.ParticleSchema.Name,
		Fields: append([]ffs.Field{
			{Name: "_rank", Kind: ffs.KindInt64},
			{Name: "_timestep", Kind: ffs.KindInt64},
		}, bench.ParticleSchema.Fields...),
	}
	return schema, ffs.Record{"p": in.recs[set][writer]["p"], "_rank": int64(writer), "_timestep": int64(set)}
}

// replayCodec replays ffs.Encode, ffs.Decode and staging Seal +
// DecodeChunk over every writer's packed chunk of every input set and
// returns the sealed chunks for the journal replay.
func replayCodec(in *gtcInputs, r *report) [][]byte {
	const raw = gtcInputSets * gtcDumpBytes // raw particle bytes per pass
	var enc, dec, unseal []float64
	var encoded, sealed [][]byte
	var allocs uint64
	var err error
	for pass := 0; pass < replayPasses; pass++ {
		encoded = encoded[:0]
		a0 := totalAlloc()
		t0 := time.Now()
		for set := 0; set < gtcInputSets; set++ {
			for wr := 0; wr < gtcWriters; wr++ {
				schema, rec := packedChunk(in, set, wr)
				b, e := ffs.Encode(schema, rec)
				err = errors.Join(err, e)
				encoded = append(encoded, b)
			}
		}
		enc = append(enc, raw/1e6/time.Since(t0).Seconds())
		allocs += totalAlloc() - a0

		t0 = time.Now()
		for _, b := range encoded {
			_, _, e := ffs.Decode(b)
			err = errors.Join(err, e)
		}
		dec = append(dec, raw/1e6/time.Since(t0).Seconds())

		sealed = sealed[:0]
		t0 = time.Now()
		for i, b := range encoded {
			s := staging.Seal(b)
			c, e := staging.DecodeChunk(s)
			if e == nil && (c.WriterRank != i%gtcWriters || c.Timestep != int64(i/gtcWriters)) {
				e = fmt.Errorf("decoded chunk %d as writer %d timestep %d", i, c.WriterRank, c.Timestep)
			}
			err = errors.Join(err, e)
			sealed = append(sealed, s)
		}
		unseal = append(unseal, raw/1e6/time.Since(t0).Seconds())
	}
	r.check("codec replay round-trips", err)
	r.set("ffs.encode_mbps", median(enc), "replay of ffs.Encode on the packed chunks, raw particle MB/s")
	r.set("ffs.decode_mbps", median(dec), "replay of ffs.Decode on the encoded chunks, raw particle MB/s")
	r.set("ffs.encode_alloc_per_byte", float64(allocs)/(raw*replayPasses), "TotalAlloc during encode / raw particle bytes")
	r.set("staging.decode_chunk_mbps", median(unseal), "replay of Seal + DecodeChunk (CRC + decode), raw particle MB/s")
	return sealed
}

// replayWAL appends the sealed chunks to a fresh journal, one commit
// (flush + fsync) per input set, as a staging rank journals a dump.
func replayWAL(cfg runConfig, sealed [][]byte, r *report) {
	dir := filepath.Join(cfg.scratch, "wal-replay")
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir)
	if !r.check("journal replay", err) {
		return
	}
	defer l.Close()
	var appendMBps, syncMs []float64
	for pass := 0; pass < replayPasses; pass++ {
		var bytes int
		var appendTime time.Duration
		for set := 0; set < gtcInputSets; set++ {
			ts := int64(pass*gtcInputSets + set)
			t0 := time.Now()
			for wr := 0; wr < gtcWriters; wr++ {
				b := sealed[set*gtcWriters+wr]
				err = errors.Join(err, l.AppendChunk(wr, ts, b))
				bytes += len(b)
			}
			appendTime += time.Since(t0)
			t0 = time.Now()
			err = errors.Join(err, l.AppendCommit(ts))
			syncMs = append(syncMs, ms(time.Since(t0)))
		}
		appendMBps = append(appendMBps, float64(bytes)/1e6/appendTime.Seconds())
	}
	r.check("journal replay", err)
	r.set("wal.append_mbps", median(appendMBps), "replay of AppendChunk on the sealed chunks, journaled MB/s")
	r.set("wal.sync_ms", median(syncMs), "replay of AppendCommit (flush + fsync) per dump")
}
