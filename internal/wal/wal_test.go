package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mustOpen(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	if err := l.AppendRequest(3, 0, []byte("req-3")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendChunk(3, 0, []byte("chunk-3-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendChunk(4, 1, []byte("future-chunk")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn {
		t.Fatal("clean journal reported torn")
	}
	if st.Records != 3 || len(st.Chunks) != 2 || len(st.Requests) != 1 {
		t.Fatalf("recovered records=%d chunks=%d requests=%d", st.Records, len(st.Chunks), len(st.Requests))
	}
	if got := st.Chunks[0]; got.Writer != 3 || got.Timestep != 0 || !bytes.Equal(got.Payload, []byte("chunk-3-bytes")) {
		t.Fatalf("chunk 0 round-trip: %+v", got)
	}
	if st.NextDump() != 0 {
		t.Fatalf("NextDump = %d with nothing committed", st.NextDump())
	}
}

func TestCommitDedupes(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	for _, ts := range []int64{0, 1} {
		if err := l.AppendRequest(1, ts, []byte("r")); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendChunk(1, ts, []byte("c")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendCommit(0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.CommittedDump(0) || st.CommittedDump(1) {
		t.Fatalf("committed set wrong: %+v", st.Committed)
	}
	if len(st.Chunks) != 1 || st.Chunks[0].Timestep != 1 {
		t.Fatalf("commit did not dedupe dump 0 chunks: %+v", st.Chunks)
	}
	if len(st.Requests) != 1 || st.Requests[0].Timestep != 1 {
		t.Fatalf("commit did not dedupe dump 0 requests: %+v", st.Requests)
	}
	if st.NextDump() != 1 {
		t.Fatalf("NextDump = %d, want 1", st.NextDump())
	}
}

func TestRecoverMissingDirIsEmpty(t *testing.T) {
	st, err := Recover(filepath.Join(t.TempDir(), "never-created"))
	if err != nil {
		t.Fatal(err)
	}
	if st.HaveCheckpoint || st.Records != 0 || st.NextDump() != 0 {
		t.Fatalf("missing dir not empty: %+v", st)
	}
}

func TestCheckpointTruncatesAndCarriesForward(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	// Dumps 0 and 1 committed; one uncommitted future request must
	// survive truncation.
	for _, ts := range []int64{0, 1} {
		if err := l.AppendChunk(0, ts, []byte("c")); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendCommit(ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendRequest(5, 3, []byte("early-request")); err != nil {
		t.Fatal(err)
	}
	shard := []byte("shard-snapshot")
	if _, err := l.WriteCheckpoint(Checkpoint{Epoch: 2, NextDump: 2, Shard: shard}); err != nil {
		t.Fatal(err)
	}
	// Appends after the checkpoint land in the rewritten journal.
	if err := l.AppendChunk(6, 2, []byte("post-ckpt")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.HaveCheckpoint || st.Checkpoint.Epoch != 2 || st.Checkpoint.NextDump != 2 {
		t.Fatalf("checkpoint not recovered: %+v", st.Checkpoint)
	}
	if !bytes.Equal(st.Checkpoint.Shard, shard) {
		t.Fatalf("shard snapshot mangled: %q", st.Checkpoint.Shard)
	}
	if !st.CommittedDump(0) || !st.CommittedDump(1) || st.CommittedDump(2) {
		t.Fatal("checkpoint coverage wrong")
	}
	if len(st.Requests) != 1 || st.Requests[0].Timestep != 3 {
		t.Fatalf("future request did not survive truncation: %+v", st.Requests)
	}
	if len(st.Chunks) != 1 || !bytes.Equal(st.Chunks[0].Payload, []byte("post-ckpt")) {
		t.Fatalf("post-checkpoint append lost: %+v", st.Chunks)
	}
	if st.NextDump() != 2 {
		t.Fatalf("NextDump = %d, want 2", st.NextDump())
	}
}

func TestRecoverDropsRecordsCoveredByCheckpoint(t *testing.T) {
	// Model the crash between checkpoint rename and journal rewrite: the
	// checkpoint covers dump 0 but the journal still holds its records.
	dir := t.TempDir()
	l := mustOpen(t, dir)
	if err := l.AppendChunk(0, 0, []byte("covered")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(0); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendChunk(1, 1, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Write the checkpoint by hand, leaving the journal untouched.
	l2 := mustOpen(t, dir)
	if _, err := l2.WriteCheckpoint(Checkpoint{Epoch: 1, NextDump: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Chunks) != 1 || st.Chunks[0].Timestep != 1 {
		t.Fatalf("covered records not dropped: %+v", st.Chunks)
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	if err := l.AppendChunk(0, 0, []byte("whole")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendChunk(1, 0, []byte("gets-torn")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Torn {
		t.Fatal("torn tail not reported")
	}
	if len(st.Chunks) != 1 || !bytes.Equal(st.Chunks[0].Payload, []byte("whole")) {
		t.Fatalf("valid prefix wrong: %+v", st.Chunks)
	}
	// Re-opening truncates the tear; fresh appends must then recover.
	l2 := mustOpen(t, dir)
	if err := l2.AppendChunk(2, 0, []byte("after-tear")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn || len(st.Chunks) != 2 {
		t.Fatalf("post-tear append lost: torn=%v chunks=%+v", st.Torn, st.Chunks)
	}
}

func TestBadMagicRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte("NOTAWAL1 trailing bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a non-journal file")
	}
}

func TestOversizeRecordRefused(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	defer l.Close()
	if err := l.AppendChunk(0, 0, make([]byte, maxRecord+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(0); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync after Close succeeded")
	}
	if _, err := l.WriteCheckpoint(Checkpoint{}); err == nil {
		t.Fatal("checkpoint after Close succeeded")
	}
}

// TestPrefixConsistencyAtEveryOffset is the crash-replay property test:
// truncating the journal at EVERY byte offset must recover without
// error to a state that is a prefix of the full record sequence — never
// a record the full journal does not hold, never a gap.
func TestPrefixConsistencyAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	type step struct {
		kind Kind
		ts   int64
	}
	var full []step
	for ts := int64(0); ts < 3; ts++ {
		for w := 0; w < 2; w++ {
			if err := l.AppendRequest(w, ts, []byte(fmt.Sprintf("req-%d-%d", w, ts))); err != nil {
				t.Fatal(err)
			}
			full = append(full, step{KindRequest, ts})
			if err := l.AppendChunk(w, ts, []byte(fmt.Sprintf("chunk-%d-%d", w, ts))); err != nil {
				t.Fatal(err)
			}
			full = append(full, step{KindChunk, ts})
		}
		if err := l.AppendCommit(ts); err != nil {
			t.Fatal(err)
		}
		full = append(full, step{KindCommit, ts})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalName)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	crash := filepath.Join(t.TempDir(), "crash")
	if err := os.MkdirAll(crash, 0o755); err != nil {
		t.Fatal(err)
	}
	cpath := filepath.Join(crash, journalName)
	for off := 0; off <= len(whole); off++ {
		if err := os.WriteFile(cpath, whole[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Recover(crash)
		if err != nil {
			t.Fatalf("offset %d: Recover: %v", off, err)
		}
		// The scanner must keep exactly the whole records the offset
		// preserved — the longest valid prefix, nothing more or less.
		replayed := min(len(full), replayableRecords(whole, off))
		if int(st.Records) != replayed {
			t.Fatalf("offset %d: recovered %d records, prefix holds %d", off, st.Records, replayed)
		}
		// Every surviving chunk/request must belong to an uncommitted
		// dump, and committed dumps must form a prefix 0..LastCommitted.
		for _, r := range append(append([]Record(nil), st.Chunks...), st.Requests...) {
			if st.CommittedDump(r.Timestep) {
				t.Fatalf("offset %d: record for committed dump %d survived", off, r.Timestep)
			}
		}
		for ts := int64(0); ts <= st.LastCommitted; ts++ {
			if !st.CommittedDump(ts) {
				t.Fatalf("offset %d: commit gap at dump %d (last %d)", off, ts, st.LastCommitted)
			}
		}
	}
}

// replayableRecords counts whole records inside the first off bytes.
func replayableRecords(whole []byte, off int) int {
	pos := len(journalMagic)
	if off < pos {
		return 0
	}
	n := 0
	for {
		if pos+headerSize > off {
			return n
		}
		length := int(uint32(whole[pos+17]) | uint32(whole[pos+18])<<8 | uint32(whole[pos+19])<<16 | uint32(whole[pos+20])<<24)
		if pos+headerSize+length > off {
			return n
		}
		pos += headerSize + length
		n++
	}
}

// TestHeaderBitFlipsNeverForgeState flips every bit of every journal
// record's header (kind, writer, timestep, length, CRC) and of the
// checkpoint's header: recovery may shorten the journal or reject the
// checkpoint, but must never surface a record or checkpoint that was
// not written — a flipped timestep must not re-file a committed dump's
// chunk under an uncommitted dump.
func TestHeaderBitFlipsNeverForgeState(t *testing.T) {
	t.Run("journal", testJournalHeaderFlips)
	t.Run("checkpoint", testCheckpointHeaderFlips)
}

func testJournalHeaderFlips(t *testing.T) {
	dir := t.TempDir()
	whole := fuzzJournal(t, dir)
	appended := fuzzAppended()
	crash := t.TempDir()
	for pos := len(journalMagic); pos < len(whole); {
		length := int(uint32(whole[pos+17]) | uint32(whole[pos+18])<<8 | uint32(whole[pos+19])<<16 | uint32(whole[pos+20])<<24)
		for i := pos; i < pos+headerSize; i++ {
			for bit := 0; bit < 8; bit++ {
				bad := append([]byte(nil), whole...)
				bad[i] ^= 1 << bit
				if err := os.WriteFile(filepath.Join(crash, journalName), bad, 0o644); err != nil {
					t.Fatal(err)
				}
				st, err := Recover(crash)
				if err != nil {
					t.Fatalf("flip of byte %d bit %d: %v", i, bit, err)
				}
				for _, r := range append(append([]Record(nil), st.Chunks...), st.Requests...) {
					if !appended[recordKey(r)] {
						t.Fatalf("flip of byte %d bit %d: recovered %v (writer %d, dump %d, %q), never appended",
							i, bit, r.Kind, r.Writer, r.Timestep, r.Payload)
					}
				}
			}
		}
		pos += headerSize + length
	}
}

// testCheckpointHeaderFlips flips every bit between the checkpoint's
// magic and its shard.
func testCheckpointHeaderFlips(t *testing.T) {
	ckdir := t.TempDir()
	l := mustOpen(t, ckdir)
	shard := []byte("shard")
	if _, err := l.WriteCheckpoint(Checkpoint{Epoch: 3, NextDump: 2, Shard: shard}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(ckdir, checkpointName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(checkpointMagic); i < len(good)-len(shard); i++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), good...)
			bad[i] ^= 1 << bit
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Recover(ckdir)
			if err == nil && (st.Checkpoint.Epoch != 3 || st.Checkpoint.NextDump != 2 || !bytes.Equal(st.Checkpoint.Shard, shard)) {
				t.Fatalf("flip of checkpoint byte %d bit %d: recovered %+v", i, bit, st.Checkpoint)
			}
		}
	}
}

type appendedKey struct {
	kind     Kind
	writer   int
	timestep int64
	payload  string
}

func recordKey(r Record) appendedKey {
	return appendedKey{r.Kind, r.Writer, r.Timestep, string(r.Payload)}
}

// fuzzAppended is the set of chunk and request records fuzzJournal
// appends.
func fuzzAppended() map[appendedKey]bool {
	set := map[appendedKey]bool{}
	for ts := int64(0); ts < 2; ts++ {
		set[appendedKey{KindRequest, 1, ts, "request-blob"}] = true
		set[appendedKey{KindChunk, 1, ts, "chunk-payload-bytes"}] = true
	}
	return set
}
