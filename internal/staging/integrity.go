package staging

// End-to-end chunk integrity (DESIGN.md §13): a chunk is sealed on
// the compute client before the bytes touch the fabric and unsealed on
// the staging server right after the pull, so a CRC mismatch proves
// damage anywhere along the whole path. A sealed chunk is one
// internal/frame single frame with an empty header:
//
//	magic "PDCHNK1\n" | payload length u32 | crc32(IEEE) of payload u32 | payload

import (
	"errors"
	"fmt"

	"predata/internal/ffs"
	"predata/internal/frame"
)

// ErrCorrupt marks a sealed chunk whose frame or checksum failed
// verification: the caller should re-pull (wire corruption heals) and,
// when the source stays bad, shed the chunk rather than reduce it.
var ErrCorrupt = errors.New("chunk corrupt")

const sealMagic = "PDCHNK1\n"

// Seal frames payload with a magic header, its length, and a CRC so the
// receiver can verify the delivery end-to-end. The input is not
// retained or mutated.
func Seal(payload []byte) []byte { return frame.Seal(sealMagic, nil, payload) }

// SealRecord encodes rec under schema straight into a sealed chunk:
// the bytes equal Seal(ffs.Encode(schema, rec)), built in one buffer
// of their exact size with no payload copy.
func SealRecord(schema *ffs.Schema, rec ffs.Record) ([]byte, error) {
	n, err := ffs.Size(schema, rec)
	if err != nil {
		return nil, err
	}
	buf, err := ffs.Append(frame.Reserve(sealMagic, nil, n), schema, rec)
	if err != nil {
		return nil, err
	}
	return frame.Finish(sealMagic, 0, buf), nil
}

// Sealed reports whether buf starts with a seal frame header.
func Sealed(buf []byte) bool {
	return len(buf) >= len(sealMagic)+frame.Overhead && string(buf[:len(sealMagic)]) == sealMagic
}

// Unseal verifies a sealed frame and returns the payload (aliasing buf)
// with its verified CRC-32, which a journal append reuses. Any damage
// returns an error wrapping ErrCorrupt.
func Unseal(buf []byte) ([]byte, uint32, error) {
	_, payload, crc, err := frame.Open(sealMagic, 0, buf)
	if err != nil {
		return nil, 0, fmt.Errorf("staging: sealed chunk %v: %w", err, ErrCorrupt)
	}
	return payload, crc, nil
}
