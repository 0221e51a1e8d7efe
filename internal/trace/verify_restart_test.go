package trace

import (
	"strings"
	"testing"
)

// syntheticRestart builds a recording of a clean crash-restart recovery:
// 2 writers, 2 staging ranks (world ranks 2..3). Rank 2 journals both
// dump-0 chunks, commits, checkpoints, truncates, then crashes mid
// dump 1 and replays its journaled chunks after the restart — each chunk
// engine-retired exactly once, each replay matching its append.
func syntheticRestart() *Recording {
	ev := func(ph Phase, rank int32, dump, seq, arg, at int64) Event {
		return Event{Kind: KindInstant, Phase: ph, Rank: rank, Endpoint: -1,
			Dump: dump, Seq: seq, Arg: arg, Start: at, End: at}
	}
	return &Recording{
		NumCompute: 2, NumStaging: 2, Dumps: 2,
		Events: []Event{
			// Dump 0: journal both chunks, retire, commit, checkpoint, truncate.
			ev(PhaseJournal, 2, 0, 0, 0xAAAA, 10),
			ev(PhaseJournal, 2, 0, 1, 0xBBBB, 11),
			ev(PhaseChunk, 2, 0, 0, 0, 12),
			ev(PhaseChunk, 2, 0, 1, 0, 13),
			ev(PhaseWalCommit, 2, 0, 0, 0, 14),
			ev(PhaseCheckpoint, 2, 0, 1, 0, 15),  // covers dumps < 1
			ev(PhaseWalTruncate, 2, 0, 1, 0, 16), // keeps dumps >= 1
			// Dump 1: chunks journaled, then the service crashes and restarts;
			// the journaled chunks replay and retire exactly once.
			ev(PhaseJournal, 2, 1, 0, 0xCCCC, 20),
			ev(PhaseJournal, 2, 1, 1, 0xDDDD, 21),
			ev(PhaseRestart, 2, 1, 1, 2, 30),
			ev(PhaseWalReplay, 2, 1, 0, 0xCCCC, 31),
			ev(PhaseWalReplay, 2, 1, 1, 0xDDDD, 32),
			ev(PhaseChunk, 2, 1, 0, 0, 33),
			ev(PhaseChunk, 2, 1, 1, 0, 34),
			ev(PhaseWalCommit, 2, 1, 0, 0, 35),
		},
	}
}

func TestVerifyRestartClean(t *testing.T) {
	rep, err := Verify(syntheticRestart())
	if err != nil {
		t.Fatalf("clean restart recording failed verify: %v", err)
	}
	if rep.WALChecks != 2 {
		t.Errorf("WALChecks = %d, want 2", rep.WALChecks)
	}
	if rep.ExclusivityChecks != 4 {
		t.Errorf("ExclusivityChecks = %d, want 4 (every engine-retired (dump, writer))", rep.ExclusivityChecks)
	}
	if rep.CheckpointChecks != 1 {
		t.Errorf("CheckpointChecks = %d, want 1", rep.CheckpointChecks)
	}
}

func TestVerifyRestartDetectsViolations(t *testing.T) {
	cases := map[string]struct {
		mutate func(*Recording)
		want   string
	}{
		"replay without a journal append": {
			mutate: func(r *Recording) {
				r.Events = append(r.Events, Event{Kind: KindInstant, Phase: PhaseWalReplay,
					Rank: 3, Endpoint: -1, Dump: 1, Seq: 5, Arg: 0x1234, Start: 40, End: 40})
			},
			want: "without any recorded append",
		},
		"replay checksum mismatch": {
			mutate: func(r *Recording) {
				for i := range r.Events {
					e := &r.Events[i]
					if e.Phase == PhaseWalReplay && e.Seq == 0 {
						e.Arg = 0xBEEF
					}
				}
			},
			want: "matches no journal append",
		},
		"chunk double-reduced across a restart": {
			mutate: func(r *Recording) {
				// The revived incarnation re-processes a dump-0 chunk the
				// crashed one already committed.
				r.Events = append(r.Events, Event{Kind: KindInstant, Phase: PhaseChunk,
					Rank: 2, Endpoint: -1, Dump: 0, Seq: 1, Start: 36, End: 36})
			},
			want: "journal dedup failed",
		},
		"truncate without a checkpoint": {
			mutate: func(r *Recording) {
				for i := range r.Events {
					if r.Events[i].Phase == PhaseCheckpoint {
						r.Events[i].Phase = PhaseRetry
					}
				}
			},
			want: "no prior checkpoint",
		},
		"truncate beyond checkpoint coverage": {
			mutate: func(r *Recording) {
				// Truncation discards dumps < 2 but the checkpoint only
				// covers dumps < 1.
				for i := range r.Events {
					if r.Events[i].Phase == PhaseWalTruncate {
						r.Events[i].Seq = 2
					}
				}
			},
			want: "covers only dumps",
		},
	}
	for name, tc := range cases {
		rec := syntheticRestart()
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

// Without a PhaseRestart event the at-most-once rule must stay
// out, and without PhaseWalReplay events the fidelity rule runs zero
// checks: restart-free pipelines may re-deliver without the journal's
// dedup guarantee.
func TestVerifyRestartRulesGated(t *testing.T) {
	rec := syntheticRestart()
	var evs []Event
	for _, e := range rec.Events {
		if e.Phase == PhaseRestart || e.Phase == PhaseWalReplay {
			continue
		}
		evs = append(evs, e)
	}
	// A duplicate retire that would trip exclusivity if it applied.
	evs = append(evs, Event{Kind: KindInstant, Phase: PhaseChunk,
		Rank: 2, Endpoint: -1, Dump: 0, Seq: 1, Start: 36, End: 36})
	rec.Events = evs
	rep, err := Verify(rec)
	if err != nil {
		t.Fatalf("restart-free recording tripped exclusivity: %v", err)
	}
	if rep.ExclusivityChecks != 0 || rep.WALChecks != 0 {
		t.Fatalf("ExclusivityChecks=%d WALChecks=%d without restart/replay events",
			rep.ExclusivityChecks, rep.WALChecks)
	}
}
