// Package frame is the one magic/length/CRC framing layer (DESIGN.md,
// "Framing"). A frame is a per-format fixed header, the payload length
// u32, the CRC-32 (IEEE) of payload‖header u32 and the payload. A
// single frame (Seal/Open) is a magic and one frame; a stream
// (Writer/Scan) is a magic and frames back to back.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Overhead is what a frame adds after its fixed header: length and CRC.
const Overhead = 8

// ErrCorrupt marks a wrong magic, or a single frame that is
// truncated, mis-sized or fails its CRC.
var ErrCorrupt = errors.New("frame: corrupt")

var errClosed = errors.New("frame: stream closed")

// sum extends a payload's CRC-32 over the header: the frame CRC.
func sum(payloadCRC uint32, hdr []byte) uint32 {
	return crc32.Update(payloadCRC, crc32.IEEETable, hdr)
}

// Seal returns magic followed by one frame of hdr and payload, in a
// fresh buffer; neither input is retained.
func Seal(magic string, hdr, payload []byte) []byte {
	return Finish(magic, len(hdr), append(Reserve(magic, hdr, len(payload)), payload...))
}

// Reserve starts a single frame for a payload the caller appends in
// place: it returns magic, hdr and room for the length and CRC, with
// capacity for n payload bytes. Finish completes the frame.
func Reserve(magic string, hdr []byte, n int) []byte {
	buf := make([]byte, len(magic)+len(hdr)+Overhead, len(magic)+len(hdr)+Overhead+n)
	copy(buf[copy(buf, magic):], hdr)
	return buf
}

// Finish fills in the length and CRC of a frame built on Reserve's
// buffer, whose payload is everything past the hdrLen-byte header,
// and returns buf.
func Finish(magic string, hdrLen int, buf []byte) []byte {
	n := len(magic) + hdrLen
	payload := buf[n+Overhead:]
	binary.LittleEndian.PutUint32(buf[n:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[n+4:], sum(crc32.ChecksumIEEE(payload), buf[len(magic):n]))
	return buf
}

// Open verifies a Sealed frame with an hdrLen-byte header, returning
// the header and payload (aliasing buf) and the payload's CRC. Any
// mismatch returns an error wrapping ErrCorrupt.
func Open(magic string, hdrLen int, buf []byte) (hdr, payload []byte, payloadCRC uint32, err error) {
	n := len(magic) + hdrLen
	if len(buf) < n+Overhead {
		return nil, nil, 0, fmt.Errorf("frame truncated at %d bytes: %w", len(buf), ErrCorrupt)
	}
	if string(buf[:len(magic)]) != magic {
		return nil, nil, 0, fmt.Errorf("bad magic %q: %w", buf[:len(magic)], ErrCorrupt)
	}
	hdr, payload = buf[len(magic):n], buf[n+Overhead:]
	if length := binary.LittleEndian.Uint32(buf[n:]); uint64(length) != uint64(len(payload)) {
		return nil, nil, 0, fmt.Errorf("frame holds %d payload bytes, header says %d: %w", len(payload), length, ErrCorrupt)
	}
	payloadCRC = crc32.ChecksumIEEE(payload)
	if got, want := sum(payloadCRC, hdr), binary.LittleEndian.Uint32(buf[n+4:]); got != want {
		return nil, nil, 0, fmt.Errorf("checksum %08x, frame says %08x: %w", got, want, ErrCorrupt)
	}
	return hdr, payload, payloadCRC, nil
}

// Writer appends frames to a stream file through a buffer and compacts
// it in place. Safe for concurrent use; Close is idempotent.
type Writer struct {
	mu             sync.Mutex
	magic          string
	path           string
	f              *os.File
	bw             *bufio.Writer
	scratch        []byte // header, length and CRC of the frame being appended
	records, bytes int64
	busy           time.Duration
	closed         bool
	ahead, unsent  int64 // SyncAhead's interval, and bytes appended since its last kick
}

// NewWriter starts a stream of frames with hdrLen-byte headers on the
// empty file f, which it owns from here on; the magic goes first.
func NewWriter(f *os.File, magic string, hdrLen int) *Writer {
	w := &Writer{magic: magic, path: f.Name(), f: f, bw: bufio.NewWriter(f), scratch: make([]byte, hdrLen+Overhead)}
	w.bw.WriteString(magic) // a buffer write: any error resurfaces at Flush
	return w
}

// OpenStream opens (or starts) the stream at path for appending, cut to
// its valid prefix so that a torn tail never precedes new frames.
func OpenStream(path, magic string, hdrLen int) (*Writer, error) {
	if f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); err == nil {
		return NewWriter(f, magic, hdrLen), nil
	}
	w := &Writer{magic: magic, path: path, scratch: make([]byte, hdrLen+Overhead)}
	if _, err := w.Compact(nil); err != nil {
		return nil, err
	}
	return w, nil
}

// SyncAhead makes Append start the device writeback of the file after
// every n appended bytes, without waiting for it, so that the next Sync
// finds most of the stream on disk instead of writing all of it while
// the caller waits. It suits a stream synced on a schedule, like a
// journal; a stream read back before any sync, like a spill segment,
// is better left to the page cache. n <= 0 turns it off.
func (w *Writer) SyncAhead(n int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ahead, w.unsent = n, 0
}

// Append frames one record, allocating nothing, and returns its frame
// CRC. payloadCRC is the payload's CRC-32 if the caller verified it, or
// 0 to compute it here (a payload whose CRC is 0 is just hashed again).
func (w *Writer) Append(hdr, payload []byte, payloadCRC uint32) (uint32, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := time.Now()
	n := len(w.scratch) - Overhead
	if w.closed {
		return 0, errClosed
	}
	if len(hdr) != n || uint64(len(payload)) > math.MaxUint32 {
		return 0, fmt.Errorf("frame: %d-byte header and %d-byte payload do not fit", len(hdr), len(payload))
	}
	if payloadCRC == 0 {
		payloadCRC = crc32.ChecksumIEEE(payload)
	}
	copy(w.scratch, hdr)
	crc := sum(payloadCRC, w.scratch[:n])
	binary.LittleEndian.PutUint32(w.scratch[n:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.scratch[n+4:], crc)
	if _, err := w.bw.Write(w.scratch); err != nil {
		return 0, fmt.Errorf("frame: append: %w", err)
	}
	if _, err := w.bw.Write(payload); err != nil {
		return 0, fmt.Errorf("frame: append: %w", err)
	}
	w.records++
	w.bytes += int64(len(payload))
	if w.unsent += int64(len(w.scratch) + len(payload)); w.ahead > 0 && w.unsent >= w.ahead {
		w.unsent = 0
		startWriteback(w.f)
	}
	w.busy += time.Since(start)
	return crc, nil
}

// Stats returns the frames and payload bytes appended through w, and
// the time spent appending, syncing and compacting under w's lock (so
// not counting callers queueing for it).
func (w *Writer) Stats() (records, bytes int64, busy time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records, w.bytes, w.busy
}

// Sync flushes buffered frames and fsyncs the file.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := time.Now()
	defer func() { w.busy += time.Since(start) }()
	return w.sync()
}

func (w *Writer) sync() error {
	if w.closed {
		return errClosed
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("frame: flush: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("frame: fsync: %w", err)
	}
	return nil
}

// Compact atomically rewrites the stream without the frames whose
// header drop selects (nil drops none), copying the rest verbatim once
// verified, and returns how many it kept. drop runs under w's lock and
// must not call into w. A caller makes durable whatever the dropped
// frames stood for before calling Compact.
func (w *Writer) Compact(drop func(hdr []byte) bool) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := time.Now()
	defer func() { w.busy += time.Since(start) }()
	if w.f != nil {
		if err := w.sync(); err != nil {
			return 0, err
		}
	}
	kept := 0
	f, bw, err := replace(w.path, func(bw *bufio.Writer) error {
		bw.WriteString(w.magic) // a buffer write: any error resurfaces at Flush
		_, _, err := Scan(w.path, w.magic, len(w.scratch)-Overhead, drop, func(r Record) error {
			kept++
			_, err := bw.Write(r.Frame)
			return err
		})
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("frame: compact: %w", err)
	}
	if w.f != nil {
		w.f.Close() // synced above: nothing is left to lose
	}
	w.f, w.bw = f, bw
	return kept, nil
}

// Close flushes and closes the file. Idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if err := errors.Join(w.bw.Flush(), w.f.Close()); err != nil {
		return fmt.Errorf("frame: close: %w", err)
	}
	return nil
}

// WriteFile durably replaces the file at path with a Sealed frame.
func WriteFile(path, magic string, hdr, payload []byte) error {
	f, _, err := replace(path, func(bw *bufio.Writer) error {
		_, err := bw.Write(Seal(magic, hdr, payload))
		return err
	})
	if err != nil {
		return err
	}
	return f.Close()
}

// replace durably swaps what fill writes in for the file at path (temp
// file, fsync, rename, directory fsync), returning it open at its end.
func replace(path string, fill func(*bufio.Writer) error) (*os.File, *bufio.Writer, error) {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err == nil {
		var d *os.File
		if d, err = os.Open(filepath.Dir(path)); err == nil {
			err = errors.Join(d.Sync(), d.Close())
		}
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, nil, err
	}
	return f, bw, nil
}

// Record is one verified stream frame. Header and Payload alias Frame,
// which Scan reuses once fn returns: copy what you keep.
type Record struct {
	Header, Payload, Frame []byte
	CRC                    uint32 // the frame CRC
}

// Scan calls fn for each whole, CRC-verified frame of the stream at
// path, in order, stepping over (unread, unverified) the frames whose
// header skip selects; skip may be nil. It stops at the first frame
// that is torn or fails its CRC, or inside the magic, and returns the
// valid prefix's length with torn set. A wrong magic is an error
// wrapping ErrCorrupt; fn's error stops the scan and is returned as
// is. Scan never allocates past the file's end.
func Scan(path, magic string, hdrLen int, skip func(hdr []byte) bool, fn func(Record) error) (valid int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	head := make([]byte, max(len(magic), hdrLen+Overhead))
	if _, err := f.ReadAt(head[:len(magic)], 0); err != nil {
		return 0, true, nil
	}
	if string(head[:len(magic)]) != magic {
		return 0, false, fmt.Errorf("bad magic %q: %w", head[:len(magic)], ErrCorrupt)
	}
	head = head[:hdrLen+Overhead]
	var buf []byte
	var n int64
	for valid = int64(len(magic)); valid < st.Size(); valid += n {
		if _, err := f.ReadAt(head, valid); err != nil {
			return valid, true, nil
		}
		n = int64(len(head)) + int64(binary.LittleEndian.Uint32(head[hdrLen:]))
		if n > st.Size()-valid {
			return valid, true, nil
		}
		if skip != nil && skip(head[:hdrLen]) {
			continue
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		frame := buf[:n]
		copy(frame, head)
		if _, err := f.ReadAt(frame[len(head):], valid+int64(len(head))); err != nil {
			return valid, true, nil
		}
		rec := Record{Header: frame[:hdrLen], Payload: frame[len(head):], Frame: frame,
			CRC: binary.LittleEndian.Uint32(head[hdrLen+4:])}
		if sum(crc32.ChecksumIEEE(rec.Payload), rec.Header) != rec.CRC {
			return valid, true, nil
		}
		if err := fn(rec); err != nil {
			return valid, false, err
		}
	}
	return valid, false, nil
}
