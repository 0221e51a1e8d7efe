package flowctl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"predata/internal/frame"
)

// Spill segments are the overflow queue's on-disk form (DESIGN.md §8):
// an internal/frame stream of packed chunks, each under a writer i64 |
// timestep i64 header, replayed in arrival order before Reduce.
const (
	segmentMagic  = "PDSPILL2"
	segmentHeader = 8 + 8
)

// ErrSegmentCorrupt marks a segment whose header or record framing failed
// verification at replay.
var ErrSegmentCorrupt = errors.New("flowctl: spill segment corrupt")

// SegmentWriter appends chunk records to one spill segment file. Safe
// for concurrent use.
type SegmentWriter struct {
	fw   *frame.Writer
	path string
}

// CreateSegment creates a fresh spill segment in dir ("" means the OS
// temp directory) and writes its header.
func CreateSegment(dir, pattern string) (*SegmentWriter, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, fmt.Errorf("flowctl: create spill segment: %w", err)
	}
	return &SegmentWriter{fw: frame.NewWriter(f, segmentMagic, segmentHeader), path: f.Name()}, nil
}

// Path returns the segment file's location.
func (s *SegmentWriter) Path() string { return s.path }

// Chunks returns the number of records appended.
func (s *SegmentWriter) Chunks() int64 {
	n, _, _ := s.fw.Stats()
	return n
}

// Bytes returns the total payload bytes appended.
func (s *SegmentWriter) Bytes() int64 {
	_, b, _ := s.fw.Stats()
	return b
}

// Append writes one chunk record.
func (s *SegmentWriter) Append(writer int, timestep int64, payload []byte) error {
	var hdr [segmentHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(writer))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(timestep))
	if _, err := s.fw.Append(hdr[:], payload, 0); err != nil {
		return fmt.Errorf("flowctl: spill append to %s: %w", s.path, err)
	}
	return nil
}

// Close flushes and closes the segment file, leaving it on disk for
// replay. Close is idempotent.
func (s *SegmentWriter) Close() error {
	if err := s.fw.Close(); err != nil {
		return fmt.Errorf("flowctl: close spill segment %s: %w", s.path, err)
	}
	return nil
}

// Remove closes the segment and deletes it from disk.
func (s *SegmentWriter) Remove() error {
	err := s.Close()
	if rmErr := os.Remove(s.path); rmErr != nil && err == nil {
		err = rmErr
	}
	return err
}

// ReplaySegment invokes fn for each record in append order; fn owns the
// payload. It stops at fn's first error or at damage — a closed segment
// has no legitimate torn tail, so that is ErrSegmentCorrupt.
func ReplaySegment(path string, fn func(writer int, timestep int64, payload []byte) error) error {
	_, torn, err := frame.Scan(path, segmentMagic, segmentHeader, nil, func(r frame.Record) error {
		return fn(int(int64(binary.LittleEndian.Uint64(r.Header))),
			int64(binary.LittleEndian.Uint64(r.Header[8:])), bytes.Clone(r.Payload))
	})
	switch {
	case errors.Is(err, frame.ErrCorrupt):
		return fmt.Errorf("flowctl: %s: %v: %w", path, err, ErrSegmentCorrupt)
	case err != nil:
		return fmt.Errorf("flowctl: replay spill segment %s: %w", path, err)
	case torn:
		return fmt.Errorf("flowctl: %s: torn or damaged record: %w", path, ErrSegmentCorrupt)
	}
	return nil
}
