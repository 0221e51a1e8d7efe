package staging

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"predata/internal/ffs"
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

// sealRecordCases are records SealRecord must frame exactly as
// Seal(ffs.Encode(...)) does: a packed particle chunk, a record of
// every scalar kind and an empty array payload.
func sealRecordCases() []struct {
	schema *ffs.Schema
	rec    ffs.Record
} {
	return []struct {
		schema *ffs.Schema
		rec    ffs.Record
	}{
		{&ffs.Schema{Name: "particles", Fields: []ffs.Field{
			{Name: "_rank", Kind: ffs.KindInt64}, {Name: "_timestep", Kind: ffs.KindInt64},
			{Name: "p", Kind: ffs.KindArray}}},
			ffs.Record{"_rank": int64(3), "_timestep": int64(9), "p": &ffs.Array{
				Dims: []uint64{100, 8}, Float64: make([]float64, 800)}}},
		{&ffs.Schema{Name: "scalars", Fields: []ffs.Field{
			{Name: "u", Kind: ffs.KindUint64}, {Name: "f", Kind: ffs.KindFloat64},
			{Name: "s", Kind: ffs.KindString}, {Name: "b", Kind: ffs.KindBytes},
			{Name: "is", Kind: ffs.KindInt64Slice}, {Name: "fs", Kind: ffs.KindFloat64Slice}}},
			ffs.Record{"u": uint64(1), "f": -0.5, "s": "x", "b": []byte{1, 2},
				"is": []int64{-1}, "fs": []float64{}}},
		{&ffs.Schema{Name: "empty", Fields: []ffs.Field{{Name: "a", Kind: ffs.KindArray}}},
			ffs.Record{"a": &ffs.Array{Dims: []uint64{0}, Int64: []int64{}}}},
	}
}

func TestSealRecordMatchesSealOfEncode(t *testing.T) {
	for _, c := range sealRecordCases() {
		enc, err := ffs.Encode(c.schema, c.rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SealRecord(c.schema, c.rec)
		if err != nil {
			t.Fatal(err)
		}
		if want := Seal(enc); !bytes.Equal(got, want) {
			t.Fatalf("%s: SealRecord = %x\nwant Seal(Encode) = %x", c.schema.Name, got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("%s: SealRecord buffer has %d spare bytes", c.schema.Name, cap(got)-len(got))
		}
	}
	if _, err := SealRecord(sealRecordCases()[0].schema, ffs.Record{"_rank": int64(0)}); err == nil {
		t.Fatal("SealRecord accepted a record missing fields")
	}
}

// TestSealRecordAllocations gates the writer's pack path: a one-array
// record is encoded and sealed in at most two allocations whatever the
// array size. It takes one today, the sealed buffer itself.
func TestSealRecordAllocations(t *testing.T) {
	schema := &ffs.Schema{Name: "p", Fields: []ffs.Field{{Name: "p", Kind: ffs.KindArray}}}
	rec := ffs.Record{"p": &ffs.Array{Dims: []uint64{10000, 8}, Float64: make([]float64, 80000)}}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := SealRecord(schema, rec); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("SealRecord made %v allocations per call, want <= 2", n)
	}
}
