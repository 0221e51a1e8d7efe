package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"predata/internal/frame"
)

// Binary recording format: one internal/frame single frame (DESIGN.md,
// "Framing") under the magic "PDTRACE2". The frame header is
// binaryHeader (20 bytes); the payload is the events back to back, each
// Event's fields in declaration order (50 bytes), all little-endian.
// The CRC is checked before any record is decoded.
const (
	binaryMagic  = "PDTRACE2"
	recordSize   = 50
	maxBinaryLen = 1 << 31 // refuse absurd files before allocating
)

// binaryHeader is the recording's shape as the frame header carries it.
type binaryHeader struct {
	NumCompute, NumStaging, Dumps int32
	Dropped                       int64
}

// WriteBinary serializes the recording in PDTRACE2 form.
func WriteBinary(w io.Writer, rec *Recording) error {
	if rec == nil {
		return fmt.Errorf("trace: nil recording")
	}
	var hdr, body bytes.Buffer
	binary.Write(&hdr, binary.LittleEndian, binaryHeader{ // writes to a bytes.Buffer cannot fail
		int32(rec.NumCompute), int32(rec.NumStaging), int32(rec.Dumps), rec.Dropped})
	binary.Write(&body, binary.LittleEndian, rec.Events)
	_, err := w.Write(frame.Seal(binaryMagic, hdr.Bytes(), body.Bytes()))
	return err
}

// ReadBinary parses a PDTRACE2 recording. Corrupt input yields an
// error, never a panic, and the CRC is checked before any record is
// decoded.
func ReadBinary(r io.Reader) (*Recording, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxBinaryLen+1))
	if err != nil {
		return nil, fmt.Errorf("trace: read recording: %w", err)
	}
	return DecodeBinary(data)
}

// DecodeBinary parses a PDTRACE2 recording from memory.
func DecodeBinary(data []byte) (*Recording, error) {
	if len(data) > maxBinaryLen {
		return nil, fmt.Errorf("trace: recording exceeds %d bytes", maxBinaryLen)
	}
	var h binaryHeader
	hdr, records, _, err := frame.Open(binaryMagic, binary.Size(h), data)
	if err != nil {
		return nil, fmt.Errorf("trace: recording: %w", err)
	}
	if len(records)%recordSize != 0 {
		return nil, fmt.Errorf("trace: %d record bytes is not a whole number of records", len(records))
	}
	rec := &Recording{Events: make([]Event, len(records)/recordSize)}
	// Both reads are sized exactly by the checks above, so neither fails.
	binary.Read(bytes.NewReader(hdr), binary.LittleEndian, &h)
	binary.Read(bytes.NewReader(records), binary.LittleEndian, rec.Events)
	rec.NumCompute, rec.NumStaging, rec.Dumps, rec.Dropped = int(h.NumCompute), int(h.NumStaging), int(h.Dumps), h.Dropped
	if rec.NumCompute < 0 || rec.NumStaging < 0 || rec.Dumps < 0 || rec.Dropped < 0 {
		return nil, fmt.Errorf("trace: negative header field")
	}
	for i, e := range rec.Events {
		switch {
		case e.Kind > KindInstant:
			return nil, fmt.Errorf("trace: record %d: bad kind %d", i, e.Kind)
		case e.Phase == PhaseInvalid || int(e.Phase) >= len(phaseNames):
			return nil, fmt.Errorf("trace: record %d: bad phase %d", i, e.Phase)
		case e.Kind == KindSpan && e.End < e.Start:
			return nil, fmt.Errorf("trace: record %d: span ends before it starts", i)
		}
	}
	return rec, nil
}

// ReadFile loads a PDTRACE2 recording from disk.
func ReadFile(path string) (*Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}
