// Command predata-trace inspects PDTRACE2 flight-recorder files written
// by predata-run -trace or the bench harness.
//
// Usage:
//
//	predata-trace dump run.trace            print every event
//	predata-trace dump -chrome out.json run.trace
//	predata-trace validate run.trace        check runtime invariants
//	predata-trace diff a.trace b.trace      compare two recordings
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"predata/internal/trace"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "dump":
		err = cmdDump(args[1:])
	case "validate":
		err = cmdValidate(args[1:])
	case "diff":
		err = cmdDiff(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "predata-trace: unknown command %q\n", args[0])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "predata-trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  predata-trace dump [-chrome out.json] file   print events (or convert)
  predata-trace validate file                  check runtime invariants
  predata-trace diff a b                       compare two recordings`)
}

// cmdDump prints a recording event-by-event, or converts it to Chrome
// trace_event JSON when -chrome is given.
func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ContinueOnError)
	chromeOut := fs.String("chrome", "", "write Chrome trace_event JSON here instead of printing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("dump wants exactly one trace file, got %d args", fs.NArg())
	}
	rec, err := trace.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if *chromeOut != "" {
		f, err := os.Create(*chromeOut)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f, rec); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("%d events -> %s\n", len(rec.Events), *chromeOut)
		return nil
	}
	fmt.Printf("recording: %d compute + %d staging ranks, %d dumps, %d events, %d dropped\n",
		rec.NumCompute, rec.NumStaging, rec.Dumps, len(rec.Events), rec.Dropped)
	for i := range rec.Events {
		e := &rec.Events[i]
		switch e.Kind {
		case trace.KindSpan:
			fmt.Printf("%12dns +%-10s %-12s rank=%-3d ep=%-3d dump=%-3d seq=%-3d arg=%d\n",
				e.Start, time.Duration(e.End-e.Start), e.Name(), e.Rank, e.Endpoint, e.Dump, e.Seq, e.Arg)
		default:
			name := e.Name()
			if e.Phase == trace.PhaseCollective {
				name = "coll:" + trace.CollName(e.Endpoint)
			}
			fmt.Printf("%12dns  %-10s %-12s rank=%-3d ep=%-3d dump=%-3d seq=%-3d arg=%d\n",
				e.Start, "", name, e.Rank, e.Endpoint, e.Dump, e.Seq, e.Arg)
		}
	}
	return nil
}

// cmdValidate runs trace.Verify and reports the outcome.
func cmdValidate(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("validate wants exactly one trace file, got %d args", len(args))
	}
	rec, err := trace.ReadFile(args[0])
	if err != nil {
		return err
	}
	rep, verr := trace.Verify(rec)
	if verr != nil {
		return verr
	}
	fmt.Printf("%s: OK — %d events, %d collective groups (%d calls), %d shuffle edges, %d replay checks, %d budgeted ranks, %d WAL replays, %d at-most-once checks, %d checkpoint truncations\n",
		args[0], rep.Events, rep.CollectiveGroups, rep.Collectives,
		rep.ShuffleEdges, rep.ReplayChecks, rep.LeaseRanks,
		rep.WALChecks, rep.ExclusivityChecks, rep.CheckpointChecks)
	return nil
}

// phaseRank counts events of one phase attributed to one rank.
type phaseRank struct {
	phase trace.Phase
	rank  int32
}

// cmdDiff compares two recordings structurally: topology, per-phase
// per-rank event counts, and per-rank collective call sequences. Timing
// differences are expected between runs and ignored; structural
// differences (an extra retry, a missing collective, a rank that shed
// where the other spilled) are what the command surfaces.
func cmdDiff(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("diff wants exactly two trace files, got %d args", len(args))
	}
	a, err := trace.ReadFile(args[0])
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	b, err := trace.ReadFile(args[1])
	if err != nil {
		return fmt.Errorf("%s: %w", args[1], err)
	}
	diffs := 0
	if a.NumCompute != b.NumCompute || a.NumStaging != b.NumStaging || a.Dumps != b.Dumps {
		fmt.Printf("topology: %d+%d ranks %d dumps vs %d+%d ranks %d dumps\n",
			a.NumCompute, a.NumStaging, a.Dumps, b.NumCompute, b.NumStaging, b.Dumps)
		diffs++
	}
	diffs += diffCounts(a, b)
	diffs += diffCollectives(a, b)
	if diffs == 0 {
		fmt.Printf("recordings are structurally identical (%d vs %d events; timing ignored)\n",
			len(a.Events), len(b.Events))
		return nil
	}
	return fmt.Errorf("%d structural difference(s)", diffs)
}

func countByPhaseRank(rec *trace.Recording) map[phaseRank]int {
	m := map[phaseRank]int{}
	for i := range rec.Events {
		e := &rec.Events[i]
		m[phaseRank{phase: e.Phase, rank: e.Rank}]++
	}
	return m
}

func diffCounts(a, b *trace.Recording) int {
	ca, cb := countByPhaseRank(a), countByPhaseRank(b)
	keys := map[phaseRank]bool{}
	for k := range ca {
		keys[k] = true
	}
	for k := range cb {
		keys[k] = true
	}
	ordered := make([]phaseRank, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].phase != ordered[j].phase {
			return ordered[i].phase < ordered[j].phase
		}
		return ordered[i].rank < ordered[j].rank
	})
	diffs := 0
	for _, k := range ordered {
		if ca[k] != cb[k] {
			fmt.Printf("count %s rank %d: %d vs %d\n", k.phase, k.rank, ca[k], cb[k])
			diffs++
		}
	}
	return diffs
}

// collSeq renders one rank's collective calls in one dump+comm group as
// a canonical string for comparison.
func collSeqs(rec *trace.Recording) map[string]string {
	type key struct {
		dump, comm int64
		rank       int32
	}
	type call struct {
		seq int64
		op  int32
	}
	calls := map[key][]call{}
	for i := range rec.Events {
		e := &rec.Events[i]
		if e.Phase != trace.PhaseCollective {
			continue
		}
		k := key{dump: e.Dump, comm: e.Arg, rank: e.Rank}
		calls[k] = append(calls[k], call{seq: e.Seq, op: e.Endpoint})
	}
	out := map[string]string{}
	for k, cs := range calls {
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].seq != cs[j].seq {
				return cs[i].seq < cs[j].seq
			}
			return cs[i].op < cs[j].op
		})
		s := ""
		for _, c := range cs {
			s += fmt.Sprintf(" %d:%s", c.seq, trace.CollName(c.op))
		}
		out[fmt.Sprintf("dump %d comm %d rank %d", k.dump, k.comm, k.rank)] = s
	}
	return out
}

func diffCollectives(a, b *trace.Recording) int {
	sa, sb := collSeqs(a), collSeqs(b)
	keys := map[string]bool{}
	for k := range sa {
		keys[k] = true
	}
	for k := range sb {
		keys[k] = true
	}
	ordered := make([]string, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	diffs := 0
	for _, k := range ordered {
		va, oka := sa[k]
		vb, okb := sb[k]
		switch {
		case !oka:
			fmt.Printf("collectives %s: only in %s:%s\n", k, "B", vb)
			diffs++
		case !okb:
			fmt.Printf("collectives %s: only in %s:%s\n", k, "A", va)
			diffs++
		case va != vb:
			fmt.Printf("collectives %s:\n  A:%s\n  B:%s\n", k, va, vb)
			diffs++
		}
	}
	return diffs
}
