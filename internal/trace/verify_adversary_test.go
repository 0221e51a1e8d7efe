package trace

import (
	"strings"
	"testing"
)

// syntheticAdversary builds a recording of a run that exercised all
// three adversarial-wire mechanisms cleanly: 3 writers, 2 staging ranks
// (world ranks 3..4), one CRC detection healed by re-pull, one chunk
// corrupt-dropped after detection, one partition fence that heals, and
// one hedged pull whose race resolved.
func syntheticAdversary() *Recording {
	ev := func(k Kind, ph Phase, rank, ep int32, dump, seq, arg, start, end int64) Event {
		return Event{Kind: k, Phase: ph, Rank: rank, Endpoint: ep,
			Dump: dump, Seq: seq, Arg: arg, Start: start, End: end}
	}
	chunk := func(rank int32, dump, writer, at int64) Event {
		return ev(KindInstant, PhaseChunk, rank, int32(writer), dump, writer, 0, at, at)
	}
	return &Recording{
		NumCompute: 3, NumStaging: 2, Dumps: 2,
		Events: []Event{
			// Dump 0: writer 0's pull fails CRC once, re-pull heals, chunk
			// retires normally.
			ev(KindInstant, PhaseCorruptDetect, 3, 0, 0, 0, 0, 10, 10),
			chunk(3, 0, 0, 12),
			// Writer 1's source stays bad: detected twice, then dropped.
			ev(KindInstant, PhaseCorruptDetect, 3, 1, 0, 1, 0, 14, 14),
			ev(KindInstant, PhaseCorruptDetect, 3, 1, 0, 1, 1, 16, 16),
			ev(KindInstant, PhaseCorruptDrop, 3, 1, 0, 1, 0, 18, 18),
			// Writer 2 hedges and the race resolves (hedge lost).
			ev(KindInstant, PhaseHedge, 4, 2, 0, 2, 0, 20, 20),
			ev(KindInstant, PhaseHedgeCancel, 4, 2, 0, 2, 0, 22, 22),
			chunk(4, 0, 2, 24),
			// Dump 1: rank 4 is fenced (probe without quorum), its writer
			// served by rank 3; rank 4 heals afterwards.
			ev(KindInstant, PhaseProbe, 4, -1, 1, 1, 0, 30, 30),
			ev(KindInstant, PhaseProbe, 3, -1, 1, 1, 1, 30, 30),
			chunk(3, 1, 0, 32), chunk(3, 1, 1, 33), chunk(3, 1, 2, 34),
			ev(KindInstant, PhaseHeal, 4, -1, 1, 1, 0, 40, 40),
		},
	}
}

func TestVerifyAdversaryClean(t *testing.T) {
	rep, err := Verify(syntheticAdversary())
	if err != nil {
		t.Fatalf("clean adversary recording failed verify: %v", err)
	}
	if rep.CorruptChecks != 1 {
		t.Errorf("CorruptChecks = %d, want 1", rep.CorruptChecks)
	}
	if rep.ExclusivityChecks != 5 {
		t.Errorf("ExclusivityChecks = %d, want 5 (every engine-retired (dump, writer))", rep.ExclusivityChecks)
	}
	if rep.HedgeChecks != 1 {
		t.Errorf("HedgeChecks = %d, want 1", rep.HedgeChecks)
	}
}

func TestVerifyAdversaryDetectsViolations(t *testing.T) {
	cases := map[string]struct {
		mutate func(*Recording)
		want   string
	}{
		"corrupt-dropped chunk reaches Reduce": {
			mutate: func(r *Recording) {
				r.Events = append(r.Events, Event{Kind: KindInstant, Phase: PhaseChunk,
					Rank: 3, Endpoint: 1, Dump: 0, Seq: 1, Start: 19, End: 19})
			},
			want: "corrupted bytes reached Reduce",
		},
		"corrupt-drop without detection": {
			mutate: func(r *Recording) {
				for i := range r.Events {
					e := &r.Events[i]
					if e.Phase == PhaseCorruptDetect && e.Seq == 1 {
						e.Phase = PhaseRetry
					}
				}
			},
			want: "without any recorded CRC detection",
		},
		"chunk double-reduced across a heal": {
			mutate: func(r *Recording) {
				// The healed rank re-processes writer 2's dump-1 chunk.
				r.Events = append(r.Events, Event{Kind: KindInstant, Phase: PhaseChunk,
					Rank: 4, Endpoint: 2, Dump: 1, Seq: 2, Start: 41, End: 41})
			},
			want: "double-reduced",
		},
		"hedge race never resolved": {
			mutate: func(r *Recording) {
				for i := range r.Events {
					if r.Events[i].Phase == PhaseHedgeCancel {
						r.Events[i].Phase = PhaseRetry
					}
				}
			},
			want: "outlived its race",
		},
		"resolution without a launch": {
			mutate: func(r *Recording) {
				r.Events = append(r.Events, Event{Kind: KindInstant, Phase: PhaseHedgeCancel,
					Rank: 3, Endpoint: 0, Dump: 1, Seq: 0, Arg: 1, Start: 50, End: 50})
			},
			want: "outlived its race",
		},
	}
	for name, tc := range cases {
		rec := syntheticAdversary()
		tc.mutate(rec)
		rep, err := Verify(rec)
		if err == nil {
			t.Errorf("%s: not detected", name)
			continue
		}
		found := false
		for _, v := range rep.Violations {
			if strings.Contains(v, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: violations %q lack %q", name, rep.Violations, tc.want)
		}
	}
}

// Without a PhaseHeal event the double-processing rule must stay out:
// non-partition pipelines may legitimately re-deliver (e.g. a shed
// class recount) without the fence/heal census guarantee.
func TestVerifyHealExclusivityGatedOnHeals(t *testing.T) {
	rec := syntheticAdversary()
	var evs []Event
	for _, e := range rec.Events {
		if e.Phase == PhaseHeal {
			continue
		}
		evs = append(evs, e)
	}
	// A duplicate retire that would trip the rule if it applied.
	evs = append(evs, Event{Kind: KindInstant, Phase: PhaseChunk,
		Rank: 4, Endpoint: 2, Dump: 1, Seq: 2, Start: 41, End: 41})
	rec.Events = evs
	rep, err := Verify(rec)
	if err != nil {
		t.Fatalf("heal-free recording tripped exclusivity: %v", err)
	}
	if rep.ExclusivityChecks != 0 {
		t.Fatalf("ExclusivityChecks = %d without a heal event", rep.ExclusivityChecks)
	}
}
