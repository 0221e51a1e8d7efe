// Package wal is the staging area's durability layer (DESIGN.md §14):
// a write-ahead journal (PDWAL2) of pulled chunks, fetch requests and
// fsynced per-dump commits, plus dump-boundary checkpoints (PDCKPT2).
// Recovery dedupes committed dumps, so replay is exactly-once, and
// treats a torn journal tail as normal: it keeps the valid prefix.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"predata/internal/frame"
)

const (
	journalMagic    = "PDWAL2\n\x00"
	checkpointMagic = "PDCKPT2\n"
	journalName     = "journal.wal"
	checkpointName  = "checkpoint.ckpt"
	// recordHeader is a journal frame's header: kind u8 | writer i64 |
	// timestep i64. headerSize adds the frame's length and CRC.
	recordHeader     = 1 + 8 + 8
	headerSize       = recordHeader + frame.Overhead
	checkpointHeader = 8 + 8    // epoch i64 | next dump i64
	maxRecord        = 64 << 20 // no real chunk approaches 64 MB
	// syncAhead is how many appended bytes start their writeback ahead
	// of the commit fsync (frame.Writer.SyncAhead): a dump's chunks go
	// to disk while it is reduced, and the fsync waits for the rest.
	syncAhead = 256 << 10
)

// ErrCorrupt marks a file that is not a journal or checkpoint at all
// (bad magic), or a damaged checkpoint. Torn or bit-flipped journal
// tails are NOT errors — they truncate recovery to the valid prefix.
var ErrCorrupt = frame.ErrCorrupt

// Kind classifies a journal record.
type Kind uint8

const (
	// KindChunk is a pulled, CRC-verified packed chunk (the unsealed
	// encoded bytes), journaled on arrival.
	KindChunk Kind = 1
	// KindRequest is a fetch request consumed from the fabric mailbox,
	// serialized by the caller (the pending-map state).
	KindRequest Kind = 2
	// KindCommit marks a dump fully reduced; it carries no payload and
	// is fsynced.
	KindCommit Kind = 3
)

// Record is one journal entry.
type Record struct {
	Kind     Kind
	Writer   int
	Timestep int64
	Payload  []byte
	CRC      uint32 // the frame CRC, as Append returned and Recover read it
}

// Log is an append-only journal handle. All methods are safe for
// concurrent use; Close is idempotent.
type Log struct {
	dir      string
	path     string
	fw       *frame.Writer
	ckptWall atomic.Int64 // checkpoint file writes, in nanoseconds
}

// Open creates or re-opens the journal in dir (created if missing),
// cutting an existing journal to its valid prefix (frame.OpenStream).
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	path := filepath.Join(dir, journalName)
	fw, err := frame.OpenStream(path, journalMagic, recordHeader)
	if err != nil {
		return nil, journalErr(path, err)
	}
	fw.SyncAhead(syncAhead)
	return &Log{dir: dir, path: path, fw: fw}, nil
}

// Dir returns the directory the journal lives in.
func (l *Log) Dir() string { return l.dir }

// Append journals one record and returns its frame CRC. payloadCRC is
// the payload's CRC-32 when the caller has already verified it
// (staging.Unseal returns it), or 0 to have the journal compute it.
func (l *Log) Append(rec Record, payloadCRC uint32) (uint32, error) {
	if len(rec.Payload) > maxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte frame cap", len(rec.Payload), maxRecord)
	}
	var hdr [recordHeader]byte
	hdr[0] = byte(rec.Kind)
	binary.LittleEndian.PutUint64(hdr[1:], uint64(rec.Writer))
	binary.LittleEndian.PutUint64(hdr[9:], uint64(rec.Timestep))
	crc, err := l.fw.Append(hdr[:], rec.Payload, payloadCRC)
	if err != nil {
		return 0, journalErr(l.path, err)
	}
	return crc, nil
}

// AppendChunk journals one pulled chunk's packed bytes.
func (l *Log) AppendChunk(writer int, timestep int64, payload []byte) error {
	_, err := l.Append(Record{Kind: KindChunk, Writer: writer, Timestep: timestep, Payload: payload}, 0)
	return err
}

// AppendRequest journals one consumed fetch request (caller-serialized).
func (l *Log) AppendRequest(writer int, timestep int64, blob []byte) error {
	_, err := l.Append(Record{Kind: KindRequest, Writer: writer, Timestep: timestep, Payload: blob}, 0)
	return err
}

// AppendCommit journals the dump-boundary commit marker and makes the
// journal durable through it (flush + fsync) — the point after which a
// restart must not re-reduce the dump.
func (l *Log) AppendCommit(timestep int64) error {
	if _, err := l.Append(Record{Kind: KindCommit, Writer: -1, Timestep: timestep}, 0); err != nil {
		return err
	}
	return l.Sync()
}

// Sync flushes buffered appends and fsyncs the journal.
func (l *Log) Sync() error { return journalErr(l.path, l.fw.Sync()) }

// Close flushes and closes the journal. Idempotent.
func (l *Log) Close() error { return journalErr(l.path, l.fw.Close()) }

// Records returns the number of records appended through this handle.
func (l *Log) Records() int64 {
	n, _, _ := l.fw.Stats()
	return n
}

// Bytes returns the framed bytes appended through this handle.
func (l *Log) Bytes() int64 {
	n, payload, _ := l.fw.Stats()
	return payload + n*headerSize
}

// Wall returns the time spent appending, syncing and checkpointing —
// the journal overhead figure; see frame.Writer.Stats.
func (l *Log) Wall() time.Duration {
	_, _, busy := l.fw.Stats()
	return busy + time.Duration(l.ckptWall.Load())
}

// Checkpoint is the compact dump-boundary state: every dump below
// NextDump is fully reduced and committed, Epoch is the membership
// epoch at the boundary, and Shard is an opaque shard snapshot (e.g.
// dataspaces.Space.Snapshot) restored wholesale on recovery.
type Checkpoint struct {
	Epoch    int64
	NextDump int64
	Shard    []byte
}

// WriteCheckpoint durably writes the checkpoint, then truncates the
// journal to the records it does not cover (Timestep >= NextDump) and
// returns how many survived. A crash between the steps leaves covered
// records (recovery drops them), never a hole.
func (l *Log) WriteCheckpoint(c Checkpoint) (kept int, err error) {
	var hdr [checkpointHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(c.Epoch))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(c.NextDump))
	if err := l.fw.Sync(); err != nil { // refuses a closed journal before anything is written
		return 0, journalErr(l.path, err)
	}
	start := time.Now()
	err = frame.WriteFile(filepath.Join(l.dir, checkpointName), checkpointMagic, hdr[:], c.Shard)
	l.ckptWall.Add(int64(time.Since(start)))
	if err == nil {
		kept, err = l.fw.Compact(func(h []byte) bool { return timestep(h) < c.NextDump })
	}
	return kept, journalErr(l.path, err)
}

// journalErr names the journal in a non-nil err.
func journalErr(path string, err error) error {
	if err != nil {
		return fmt.Errorf("wal: %s: %w", path, err)
	}
	return nil
}

func timestep(hdr []byte) int64 { return int64(binary.LittleEndian.Uint64(hdr[9:])) }

// readCheckpoint loads the checkpoint file, if there is one, into st.
// Any damage is ErrCorrupt: the file is written atomically, so unlike a
// torn journal tail it cannot be a crash artifact.
func readCheckpoint(dir string, st *State) error {
	b, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: read checkpoint: %w", err)
	}
	hdr, shard, _, err := frame.Open(checkpointMagic, checkpointHeader, b)
	if err != nil {
		return fmt.Errorf("wal: checkpoint in %s: %w", dir, err)
	}
	st.HaveCheckpoint = true
	st.Checkpoint.Epoch = int64(binary.LittleEndian.Uint64(hdr))
	st.Checkpoint.NextDump = int64(binary.LittleEndian.Uint64(hdr[8:]))
	st.Checkpoint.Shard = shard
	st.LastCommitted = st.Checkpoint.NextDump - 1
	return nil
}

// State is what recovery hands the restarted server: everything needed
// to rebuild pending state and replay the in-flight dump without
// re-reducing a committed one.
type State struct {
	HaveCheckpoint bool
	Checkpoint     Checkpoint
	// Committed holds dumps with a journal commit record. Dumps covered
	// by the checkpoint (below NextDump) are committed too but carry no
	// entry; use CommittedDump.
	Committed map[int64]bool
	// Chunks and Requests are the journal's uncommitted records in
	// append order.
	Chunks   []Record
	Requests []Record
	// LastCommitted is the highest committed dump (-1 when none).
	LastCommitted int64
	// Torn reports a discarded journal tail (crash mid-append).
	Torn bool
	// Records counts valid journal records scanned.
	Records int64
}

// CommittedDump reports whether the dump was fully reduced before the
// crash — by an explicit commit record or by checkpoint coverage.
func (st *State) CommittedDump(ts int64) bool {
	if st.HaveCheckpoint && ts < st.Checkpoint.NextDump {
		return true
	}
	return st.Committed[ts]
}

// NextDump is the dump index the recovered rank re-enters the pipeline
// at: one past the highest committed dump.
func (st *State) NextDump() int64 { return st.LastCommitted + 1 }

// Recover replays the checkpoint plus the journal's valid prefix from
// dir. A missing directory or journal is an empty state (dump 0).
func Recover(dir string) (*State, error) {
	st := &State{Committed: make(map[int64]bool), LastCommitted: -1}
	if err := readCheckpoint(dir, st); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, journalName)
	_, torn, err := frame.Scan(path, journalMagic, recordHeader, nil, func(fr frame.Record) error {
		rec := Record{
			Kind:     Kind(fr.Header[0]),
			Writer:   int(int64(binary.LittleEndian.Uint64(fr.Header[1:]))),
			Timestep: timestep(fr.Header),
			Payload:  bytes.Clone(fr.Payload),
			CRC:      fr.CRC,
		}
		st.Records++
		if st.HaveCheckpoint && rec.Timestep < st.Checkpoint.NextDump {
			return nil // covered by the checkpoint: a pre-truncation leftover
		}
		switch rec.Kind {
		case KindCommit:
			st.Committed[rec.Timestep] = true
			if rec.Timestep > st.LastCommitted {
				st.LastCommitted = rec.Timestep
			}
			// Dedup: drop everything already collected for the dump.
			st.Chunks = dropTimestep(st.Chunks, rec.Timestep)
			st.Requests = dropTimestep(st.Requests, rec.Timestep)
		case KindChunk:
			if !st.Committed[rec.Timestep] {
				st.Chunks = append(st.Chunks, rec)
			}
		case KindRequest:
			if !st.Committed[rec.Timestep] {
				st.Requests = append(st.Requests, rec)
			}
		}
		return nil
	})
	if errors.Is(err, os.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return nil, journalErr(path, err)
	}
	st.Torn = torn
	return st, nil
}

// dropTimestep removes records with the given timestep, preserving order.
func dropTimestep(recs []Record, ts int64) []Record {
	out := recs[:0]
	for _, r := range recs {
		if r.Timestep != ts {
			out = append(out, r)
		}
	}
	return out
}
