// Package wal is the staging area's durability layer: a CRC-framed
// write-ahead journal (PDWAL1) plus compact dump-boundary checkpoints
// (PDCKPT1), so a staging rank survives a process crash or a whole-
// service restart without losing in-flight dumps.
//
// The framing follows the PDSPILL1 discipline from internal/flowctl —
// little-endian fixed header, CRC32-IEEE over the payload — extended
// with a kind byte, because the journal records three things: chunks
// as they arrive (the pulled, CRC-verified packed bytes — staging
// memory is the only other copy, the writer's region having been
// acknowledged at pull time), fetch requests as they are consumed from
// the fabric mailbox (the pending-map state a restart would otherwise
// forget), and dump-boundary commit markers. A commit record is the
// durability point: it is flushed and fsynced, and on recovery every
// chunk/request of a committed dump is deduplicated away, which is
// what makes replay exactly-once across a restart.
//
// Unlike a spill segment, a torn journal tail is *normal*: the process
// died mid-append. Recovery keeps the longest valid prefix and reports
// Torn instead of failing, so replay after a crash at any byte offset
// yields a prefix-consistent state (property-tested). Only a damaged
// magic — the file is not a journal at all — is an error.
//
// Checkpoints compact the journal: WriteCheckpoint durably writes the
// checkpoint (tmp + rename + sync) FIRST and only then rewrites the
// journal keeping the records the checkpoint does not cover. A crash
// between the two steps leaves covered records in the journal; recovery
// drops them against the checkpoint's NextDump, so the ordering — never
// truncate state that is not yet checkpointed — is what trace.Verify's
// checkpoint→truncate rule pins down.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	journalMagic    = "PDWAL1\n\x00"
	checkpointMagic = "PDCKPT1\n"
	journalName     = "journal.wal"
	checkpointName  = "checkpoint.ckpt"

	// header: kind uint8 | writer int64 | timestep int64 | length uint32 | crc32 uint32
	headerSize = 1 + 8 + 8 + 4 + 4

	// maxRecord guards recovery against a corrupt length field: no real
	// record approaches 64 MB, so anything larger is treated as a torn
	// tail instead of a gigantic allocation.
	maxRecord = 64 << 20
)

// ErrCorrupt marks a file that is not a journal or checkpoint at all
// (bad magic). Torn or bit-flipped record tails are NOT errors — they
// truncate recovery to the valid prefix.
var ErrCorrupt = errors.New("wal: corrupt")

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
	// is fsynced. Recovery dedupes everything belonging to a committed
	// dump.
	KindCommit Kind = 3
)

// Record is one journal entry.
type Record struct {
	Kind     Kind
	Writer   int
	Timestep int64
	Payload  []byte
}

// Log is an append-only journal handle. All methods are safe for
// concurrent use; Close is idempotent.
type Log struct {
	mu      sync.Mutex
	dir     string
	path    string
	f       *os.File
	w       *bufio.Writer
	records int64
	bytes   int64
	wall    time.Duration
	closed  bool
}

// Open creates or re-opens the journal in dir (created if missing).
// An existing journal is truncated to its valid prefix first — a torn
// tail from a previous crash must not precede fresh appends, or the
// scanner would stop at the tear and lose them.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	path := filepath.Join(dir, journalName)
	_, validLen, _, scanErr := scanJournal(path, func(Record) {})
	fresh := false
	switch {
	case errors.Is(scanErr, os.ErrNotExist):
		fresh = true
	case scanErr != nil:
		return nil, scanErr
	case validLen < int64(len(journalMagic)):
		// The crash hit before the magic landed: start the file over.
		fresh = true
		if err := os.Truncate(path, 0); err != nil {
			return nil, fmt.Errorf("wal: reset truncated journal %s: %w", path, err)
		}
	default:
		if err := os.Truncate(path, validLen); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	if fresh {
		if _, err := f.Write([]byte(journalMagic)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: write magic: %w", err)
		}
	}
	return &Log{dir: dir, path: path, f: f, w: bufio.NewWriter(f)}, nil
}

// Dir returns the directory the journal lives in.
func (l *Log) Dir() string { return l.dir }

// Append journals one record and returns the payload CRC32 its frame
// header carries, so callers that log the checksum need not hash the
// payload a second time.
func (l *Log) Append(rec Record) (uint32, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := time.Now()
	if l.closed {
		return 0, fmt.Errorf("wal: append to closed journal %s", l.path)
	}
	if len(rec.Payload) > maxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte frame cap", len(rec.Payload), maxRecord)
	}
	crc := crc32.ChecksumIEEE(rec.Payload)
	var hdr [headerSize]byte
	hdr[0] = byte(rec.Kind)
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(rec.Writer))
	binary.LittleEndian.PutUint64(hdr[9:17], uint64(rec.Timestep))
	binary.LittleEndian.PutUint32(hdr[17:21], uint32(len(rec.Payload)))
	binary.LittleEndian.PutUint32(hdr[21:25], crc)
	if _, err := l.w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.w.Write(rec.Payload); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.records++
	l.bytes += int64(headerSize + len(rec.Payload))
	l.wall += time.Since(start)
	return crc, nil
}

// AppendChunk journals one pulled chunk's packed bytes.
func (l *Log) AppendChunk(writer int, timestep int64, payload []byte) error {
	_, err := l.Append(Record{Kind: KindChunk, Writer: writer, Timestep: timestep, Payload: payload})
	return err
}

// AppendRequest journals one consumed fetch request (caller-serialized).
func (l *Log) AppendRequest(writer int, timestep int64, blob []byte) error {
	_, err := l.Append(Record{Kind: KindRequest, Writer: writer, Timestep: timestep, Payload: blob})
	return err
}

// AppendCommit journals the dump-boundary commit marker and makes the
// journal durable through it (flush + fsync) — the point after which a
// restart must not re-reduce the dump.
func (l *Log) AppendCommit(timestep int64) error {
	if _, err := l.Append(Record{Kind: KindCommit, Writer: -1, Timestep: timestep}); err != nil {
		return err
	}
	return l.Sync()
}

// Sync flushes buffered appends and fsyncs the journal.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := time.Now()
	if l.closed {
		return fmt.Errorf("wal: sync of closed journal %s", l.path)
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.wall += time.Since(start)
	return nil
}

// Close flushes and closes the journal. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	ferr := l.w.Flush()
	cerr := l.f.Close()
	if ferr != nil {
		return fmt.Errorf("wal: close: %w", ferr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: close: %w", cerr)
	}
	return nil
}

// Records returns the number of records appended through this handle.
func (l *Log) Records() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Bytes returns the framed bytes appended through this handle.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Wall returns the cumulative wall time spent appending, syncing and
// checkpointing — the journal-overhead figure the restart experiment
// reports. The clock runs under the handle mutex, so it measures the
// framing, CRC and device work itself, not callers queueing on the
// handle (concurrent pull workers overlap that wait with real work).
func (l *Log) Wall() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wall
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
// journal down to the records the checkpoint does not cover (those
// with Timestep >= NextDump), returning how many records survived the
// truncation. The ordering is load-bearing: the checkpoint hits disk
// (tmp + rename + fsync) before a single journal byte is dropped, so a
// crash between the steps only leaves covered records behind — which
// recovery dedupes — never a hole.
func (l *Log) WriteCheckpoint(c Checkpoint) (kept int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := time.Now()
	if l.closed {
		return 0, fmt.Errorf("wal: checkpoint on closed journal %s", l.path)
	}
	if err := l.w.Flush(); err != nil {
		return 0, fmt.Errorf("wal: checkpoint flush: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return 0, fmt.Errorf("wal: checkpoint fsync: %w", err)
	}

	// Step 1: the checkpoint itself, atomically.
	tmp := filepath.Join(l.dir, checkpointName+".tmp")
	cf, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("wal: checkpoint: %w", err)
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(c.Epoch))
	binary.LittleEndian.PutUint64(hdr[9:17], uint64(c.NextDump))
	binary.LittleEndian.PutUint32(hdr[17:21], uint32(len(c.Shard)))
	binary.LittleEndian.PutUint32(hdr[21:25], crc32.ChecksumIEEE(c.Shard))
	werr := func() error {
		if _, err := cf.Write([]byte(checkpointMagic)); err != nil {
			return err
		}
		if _, err := cf.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := cf.Write(c.Shard); err != nil {
			return err
		}
		return cf.Sync()
	}()
	cerr := cf.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("wal: checkpoint write: %w", errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, checkpointName)); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return 0, err
	}

	// Step 2: journal truncation — rewrite keeping only the records the
	// checkpoint does not cover, then swap atomically.
	var keep []Record
	if _, _, _, err := scanJournal(l.path, func(rec Record) {
		if rec.Timestep >= c.NextDump {
			keep = append(keep, rec)
		}
	}); err != nil {
		return 0, err
	}
	jtmp := filepath.Join(l.dir, journalName+".tmp")
	if err := writeJournal(jtmp, keep); err != nil {
		return 0, err
	}
	if err := os.Rename(jtmp, l.path); err != nil {
		os.Remove(jtmp)
		return 0, fmt.Errorf("wal: journal truncate rename: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return 0, err
	}
	// Reattach the append handle to the rewritten file.
	if err := l.f.Close(); err != nil {
		return 0, fmt.Errorf("wal: journal truncate: %w", err)
	}
	nf, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: journal truncate reopen: %w", err)
	}
	l.f = nf
	l.w = bufio.NewWriter(nf)
	l.wall += time.Since(start)
	return len(keep), nil
}

// writeJournal writes a fresh journal file holding recs, fsynced.
func writeJournal(path string, recs []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("wal: rewrite journal: %w", err)
	}
	w := bufio.NewWriter(f)
	werr := func() error {
		if _, err := w.Write([]byte(journalMagic)); err != nil {
			return err
		}
		var hdr [headerSize]byte
		for _, rec := range recs {
			hdr[0] = byte(rec.Kind)
			binary.LittleEndian.PutUint64(hdr[1:9], uint64(rec.Writer))
			binary.LittleEndian.PutUint64(hdr[9:17], uint64(rec.Timestep))
			binary.LittleEndian.PutUint32(hdr[17:21], uint32(len(rec.Payload)))
			binary.LittleEndian.PutUint32(hdr[21:25], crc32.ChecksumIEEE(rec.Payload))
			if _, err := w.Write(hdr[:]); err != nil {
				return err
			}
			if _, err := w.Write(rec.Payload); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}()
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(path)
		return fmt.Errorf("wal: rewrite journal: %w", errors.Join(werr, cerr))
	}
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: sync dir %s: %w", dir, err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil || cerr != nil {
		return fmt.Errorf("wal: sync dir %s: %w", dir, errors.Join(serr, cerr))
	}
	return nil
}

// scanJournal reads the journal's valid prefix, calling fn for each
// well-formed, CRC-verified record. It returns the record count, the
// byte length of the valid prefix, and whether trailing bytes were
// discarded (torn tail — normal after a crash). A missing file returns
// os.ErrNotExist; a damaged magic returns ErrCorrupt. An entirely
// empty or magic-truncated file counts as an empty journal with a torn
// tail, not corruption: the crash hit before the magic landed.
func scanJournal(path string, fn func(Record)) (records int64, validLen int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	magic := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return 0, 0, true, nil
	}
	if string(magic) != journalMagic {
		return 0, 0, false, fmt.Errorf("wal: %s has bad magic %q: %w", path, magic, ErrCorrupt)
	}
	validLen = int64(len(journalMagic))
	var hdr [headerSize]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// EOF exactly at a record boundary is a clean tail; anything
			// shorter is torn.
			torn = !errors.Is(err, io.EOF)
			return records, validLen, torn, nil
		}
		kind := Kind(hdr[0])
		if kind != KindChunk && kind != KindRequest && kind != KindCommit {
			return records, validLen, true, nil
		}
		length := binary.LittleEndian.Uint32(hdr[17:21])
		if length > maxRecord {
			return records, validLen, true, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return records, validLen, true, nil
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[21:25]) {
			return records, validLen, true, nil
		}
		fn(Record{
			Kind:     kind,
			Writer:   int(int64(binary.LittleEndian.Uint64(hdr[1:9]))),
			Timestep: int64(binary.LittleEndian.Uint64(hdr[9:17])),
			Payload:  payload,
		})
		records++
		validLen += int64(headerSize) + int64(length)
	}
}

// readCheckpoint loads the checkpoint file. A missing file reports
// ok=false; a torn or CRC-damaged checkpoint is ErrCorrupt — unlike
// the journal it is written atomically, so damage means the file is
// not trustworthy at all.
func readCheckpoint(dir string) (Checkpoint, bool, error) {
	b, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return Checkpoint{}, false, nil
		}
		return Checkpoint{}, false, fmt.Errorf("wal: read checkpoint: %w", err)
	}
	if len(b) < len(checkpointMagic)+headerSize || string(b[:len(checkpointMagic)]) != checkpointMagic {
		return Checkpoint{}, false, fmt.Errorf("wal: checkpoint in %s damaged: %w", dir, ErrCorrupt)
	}
	hdr := b[len(checkpointMagic) : len(checkpointMagic)+headerSize]
	shard := b[len(checkpointMagic)+headerSize:]
	length := binary.LittleEndian.Uint32(hdr[17:21])
	if int(length) != len(shard) || crc32.ChecksumIEEE(shard) != binary.LittleEndian.Uint32(hdr[21:25]) {
		return Checkpoint{}, false, fmt.Errorf("wal: checkpoint in %s damaged: %w", dir, ErrCorrupt)
	}
	return Checkpoint{
		Epoch:    int64(binary.LittleEndian.Uint64(hdr[1:9])),
		NextDump: int64(binary.LittleEndian.Uint64(hdr[9:17])),
		Shard:    shard,
	}, true, nil
}

// State is what recovery hands the restarted server: the checkpoint
// (if any), the set of explicitly committed dumps in the journal tail,
// and the uncommitted chunk/request records in append order —
// everything needed to rebuild pending state and replay the in-flight
// dump without re-reducing a committed one.
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
// dir. A missing directory or journal is an empty state, not an error:
// a rank restarting with no durable history simply starts from dump 0.
func Recover(dir string) (*State, error) {
	st := &State{Committed: make(map[int64]bool), LastCommitted: -1}
	ck, ok, err := readCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	if ok {
		st.HaveCheckpoint = true
		st.Checkpoint = ck
		st.LastCommitted = ck.NextDump - 1
	}
	records, _, torn, err := func() (int64, int64, bool, error) {
		return scanJournal(filepath.Join(dir, journalName), func(rec Record) {
			if st.HaveCheckpoint && rec.Timestep < st.Checkpoint.NextDump {
				return // covered by the checkpoint: a pre-truncation leftover
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
		})
	}()
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return st, nil
		}
		return nil, err
	}
	st.Records = records
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
