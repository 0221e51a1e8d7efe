package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALRoundTrip drives the journal with a fuzz-derived append
// sequence and asserts recovery returns exactly the uncommitted suffix:
// framing, CRC, commit dedup and ordering all under one roof.
func FuzzWALRoundTrip(f *testing.F) {
	f.Add([]byte{1, 0, 3, 2, 0, 0, 3, 1}, []byte("payload"))
	f.Add([]byte{1, 1, 1, 2, 3, 3, 3, 2, 1, 0}, []byte{})
	f.Add([]byte{3, 3, 3}, []byte{0xff, 0x00, 0xfe})
	f.Fuzz(func(t *testing.T, script []byte, payload []byte) {
		if len(payload) > 1<<16 {
			t.Skip()
		}
		dir := t.TempDir()
		l, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		committed := map[int64]bool{}
		type entry struct {
			kind Kind
			ts   int64
		}
		var live []entry
		for i, b := range script {
			ts := int64(b>>2) % 5
			switch b % 3 {
			case 0:
				if err := l.AppendChunk(i, ts, payload); err != nil {
					t.Fatal(err)
				}
				if !committed[ts] {
					live = append(live, entry{KindChunk, ts})
				}
			case 1:
				if err := l.AppendRequest(i, ts, payload); err != nil {
					t.Fatal(err)
				}
				if !committed[ts] {
					live = append(live, entry{KindRequest, ts})
				}
			case 2:
				if err := l.AppendCommit(ts); err != nil {
					t.Fatal(err)
				}
				committed[ts] = true
				kept := live[:0]
				for _, e := range live {
					if e.ts != ts {
						kept = append(kept, e)
					}
				}
				live = kept
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Torn {
			t.Fatal("clean journal reported torn")
		}
		var wantChunks, wantReqs int
		for _, e := range live {
			if e.kind == KindChunk {
				wantChunks++
			} else {
				wantReqs++
			}
		}
		if len(st.Chunks) != wantChunks || len(st.Requests) != wantReqs {
			t.Fatalf("recovered chunks=%d requests=%d, want %d/%d",
				len(st.Chunks), len(st.Requests), wantChunks, wantReqs)
		}
		for ts, c := range committed {
			if c && !st.CommittedDump(ts) {
				t.Fatalf("dump %d commit lost", ts)
			}
		}
		for _, r := range st.Chunks {
			if !bytes.Equal(r.Payload, payload) {
				t.Fatalf("chunk payload mangled: %q", r.Payload)
			}
		}
	})
}

// fuzzJournal builds a small valid journal and returns its bytes.
func fuzzJournal(t *testing.T, dir string) []byte {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(0); ts < 2; ts++ {
		if err := l.AppendRequest(1, ts, []byte("request-blob")); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendChunk(1, ts, []byte("chunk-payload-bytes")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendCommit(0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzWALTruncatedTail truncates a valid journal at an arbitrary offset:
// recovery must never error, never panic, and never surface a record
// the prefix does not wholly contain.
func FuzzWALTruncatedTail(f *testing.F) {
	f.Add(uint(0))
	f.Add(uint(7))
	f.Add(uint(9))
	f.Add(uint(40))
	f.Add(uint(1 << 20))
	f.Fuzz(func(t *testing.T, cut uint) {
		src := t.TempDir()
		whole := fuzzJournal(t, src)
		off := int(cut % uint(len(whole)+1))
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), whole[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Recover(dir)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if off == len(whole) && st.Torn {
			t.Fatal("untruncated journal reported torn")
		}
		if int64(off) < st.Records*headerSize {
			t.Fatalf("offset %d cannot hold %d records", off, st.Records)
		}
	})
}

// FuzzWALBitFlip flips one byte anywhere in a valid journal: recovery
// must never error or panic — the damage either lands in the tail
// (prefix shortens, Torn) or in the magic (ErrCorrupt, the one loud
// case) — and the surviving prefix must still satisfy commit dedup and
// hold only records that were appended.
func FuzzWALBitFlip(f *testing.F) {
	f.Add(uint(0), byte(0xff))
	f.Add(uint(8), byte(0x01))
	f.Add(uint(30), byte(0x80))
	f.Add(uint(100), byte(0x55))
	f.Fuzz(func(t *testing.T, pos uint, mask byte) {
		if mask == 0 {
			t.Skip()
		}
		src := t.TempDir()
		whole := fuzzJournal(t, src)
		off := int(pos % uint(len(whole)))
		whole[off] ^= mask
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), whole, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Recover(dir)
		if err != nil {
			if off < len(journalMagic) {
				return // damaged magic is the one loud failure
			}
			t.Fatalf("bit flip at %d: %v", off, err)
		}
		appended := fuzzAppended()
		for _, r := range append(append([]Record(nil), st.Chunks...), st.Requests...) {
			if st.CommittedDump(r.Timestep) {
				t.Fatalf("bit flip at %d: record for committed dump %d survived", off, r.Timestep)
			}
			if !appended[recordKey(r)] {
				t.Fatalf("bit flip at %d: recovered %v (writer %d, dump %d, %q), never appended",
					off, r.Kind, r.Writer, r.Timestep, r.Payload)
			}
		}
	})
}
