package staging

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

func TestSealUnsealRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{
		[]byte("particle chunk bytes"),
		{},
		bytes.Repeat([]byte{0xAB}, 1<<16),
	} {
		sealed := Seal(payload)
		if !Sealed(sealed) {
			t.Fatal("sealed frame not recognized")
		}
		got, _, err := Unseal(sealed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("round trip changed payload")
		}
	}
	if Sealed([]byte("not a frame")) {
		t.Error("raw bytes recognized as sealed")
	}
}

func TestUnsealDetectsEveryByteFlip(t *testing.T) {
	payload := []byte("every single byte of this frame is covered")
	sealed := Seal(payload)
	for i := range sealed {
		bad := make([]byte, len(sealed))
		copy(bad, sealed)
		bad[i] ^= 0xFF
		if _, _, err := Unseal(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: got %v, want ErrCorrupt", i, err)
		}
	}
	// Truncation is corruption too.
	if _, _, err := Unseal(sealed[:len(sealed)-1]); !errors.Is(err, ErrCorrupt) {
		t.Error("truncated payload accepted")
	}
	if _, _, err := Unseal(sealed[:4]); !errors.Is(err, ErrCorrupt) {
		t.Error("truncated header accepted")
	}
}

func TestSealDoesNotAliasInput(t *testing.T) {
	payload := []byte("mutate me after sealing")
	sealed := Seal(payload)
	payload[0] ^= 0xFF
	if _, _, err := Unseal(sealed); err != nil {
		t.Fatalf("mutating the input after Seal broke the frame: %v", err)
	}
}

// TestSealLayoutIsStable pins the PDCHNK1 bytes: magic, payload
// length, CRC-32 of the payload, payload. Sealed chunks cross process
// boundaries, so the layout must not drift with the framing code.
func TestSealLayoutIsStable(t *testing.T) {
	payload := []byte("particle chunk bytes")
	want := []byte("PDCHNK1\n")
	want = binary.LittleEndian.AppendUint32(want, uint32(len(payload)))
	want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(payload))
	want = append(want, payload...)
	if got := Seal(payload); !bytes.Equal(got, want) {
		t.Fatalf("Seal = %x, want %x", got, want)
	}
	if _, crc, err := Unseal(want); err != nil || crc != crc32.ChecksumIEEE(payload) {
		t.Fatalf("Unseal CRC %08x, err %v", crc, err)
	}
}
