package ffs

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func particleSchema() *Schema {
	return &Schema{
		Name: "particles",
		Fields: []Field{
			{Name: "timestep", Kind: KindInt64},
			{Name: "nparticles", Kind: KindUint64},
			{Name: "dt", Kind: KindFloat64},
			{Name: "label", Kind: KindString},
			{Name: "raw", Kind: KindBytes},
			{Name: "ids", Kind: KindInt64Slice},
			{Name: "weights", Kind: KindFloat64Slice},
			{Name: "field", Kind: KindArray},
		},
	}
}

func sampleRecord() Record {
	return Record{
		"timestep":   int64(-7),
		"nparticles": uint64(1 << 40),
		"dt":         0.125,
		"label":      "electron",
		"raw":        []byte{0, 1, 2, 255},
		"ids":        []int64{5, -5, math.MaxInt64},
		"weights":    []float64{1.5, -2.25, math.Inf(1)},
		"field": &Array{
			Dims:    []uint64{2, 3},
			Global:  []uint64{4, 6},
			Offsets: []uint64{2, 3},
			Float64: []float64{1, 2, 3, 4, 5, 6},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	schema := particleSchema()
	rec := sampleRecord()
	buf, err := Encode(schema, rec)
	if err != nil {
		t.Fatal(err)
	}
	gotSchema, gotRec, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotSchema.Name != "particles" || len(gotSchema.Fields) != len(schema.Fields) {
		t.Fatalf("schema mismatch: %+v", gotSchema)
	}
	for i, f := range schema.Fields {
		if gotSchema.Fields[i] != f {
			t.Errorf("field %d: got %+v want %+v", i, gotSchema.Fields[i], f)
		}
	}
	for _, name := range []string{"timestep", "nparticles", "dt", "label"} {
		if !reflect.DeepEqual(gotRec[name], rec[name]) {
			t.Errorf("%s: got %v want %v", name, gotRec[name], rec[name])
		}
	}
	if !reflect.DeepEqual(gotRec["ids"], rec["ids"]) {
		t.Errorf("ids: got %v", gotRec["ids"])
	}
	if !reflect.DeepEqual(gotRec["weights"], rec["weights"]) {
		t.Errorf("weights: got %v", gotRec["weights"])
	}
	a := gotRec["field"].(*Array)
	want := rec["field"].(*Array)
	if !reflect.DeepEqual(a, want) {
		t.Errorf("array: got %+v want %+v", a, want)
	}
}

func TestEncodeMissingField(t *testing.T) {
	schema := &Schema{Name: "g", Fields: []Field{{Name: "x", Kind: KindInt64}}}
	_, err := Encode(schema, Record{})
	if err == nil || !strings.Contains(err.Error(), "missing field") {
		t.Fatalf("err = %v", err)
	}
}

func TestEncodeTypeMismatch(t *testing.T) {
	schema := &Schema{Name: "g", Fields: []Field{{Name: "x", Kind: KindFloat64}}}
	_, err := Encode(schema, Record{"x": "not a float"})
	if err == nil || !strings.Contains(err.Error(), "expects float64") {
		t.Fatalf("err = %v", err)
	}
}

func TestEncodeBadArray(t *testing.T) {
	schema := &Schema{Name: "g", Fields: []Field{{Name: "a", Kind: KindArray}}}
	cases := []*Array{
		{Dims: []uint64{2}, Float64: []float64{1, 2, 3}}, // wrong elem count
		{Dims: []uint64{2}}, // no payload
		{Dims: []uint64{2}, Float64: []float64{1, 2}, Int64: []int64{1, 2}},                         // both payloads
		{Dims: []uint64{2}, Global: []uint64{3}, Offsets: []uint64{2}, Float64: []float64{1, 2}},    // chunk exceeds global
		{Dims: []uint64{2}, Global: []uint64{4, 4}, Offsets: []uint64{0}, Float64: []float64{1, 2}}, // rank mismatch
	}
	for i, a := range cases {
		if _, err := Encode(schema, Record{"a": a}); err == nil {
			t.Errorf("case %d: invalid array accepted", i)
		}
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	schema := particleSchema()
	buf, err := Encode(schema, sampleRecord())
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly rather than panic.
	for n := 0; n < len(buf); n += 7 {
		if _, _, err := Decode(buf[:n]); err == nil {
			t.Fatalf("prefix of %d bytes decoded successfully", n)
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	schema := &Schema{Name: "g", Fields: []Field{{Name: "x", Kind: KindInt64}}}
	buf, err := Encode(schema, Record{"x": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, 0xFF)
	if _, _, err := Decode(buf); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeSchemaOnly(t *testing.T) {
	schema := particleSchema()
	buf, err := Encode(schema, sampleRecord())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSchema(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "particles" || len(got.Fields) != 8 {
		t.Fatalf("schema %+v", got)
	}
	if got.FieldIndex("weights") != 6 {
		t.Errorf("FieldIndex(weights) = %d", got.FieldIndex("weights"))
	}
	if got.FieldIndex("nope") != -1 {
		t.Errorf("FieldIndex(nope) = %d", got.FieldIndex("nope"))
	}
}

func TestArrayElems(t *testing.T) {
	a := &Array{Dims: []uint64{3, 4, 5}}
	if a.Elems() != 60 {
		t.Errorf("elems %d", a.Elems())
	}
	empty := &Array{}
	if empty.Elems() != 0 {
		t.Errorf("empty elems %d", empty.Elems())
	}
}

func TestKindString(t *testing.T) {
	if KindFloat64.String() != "float64" {
		t.Errorf("got %s", KindFloat64)
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Errorf("got %s", Kind(99))
	}
}

// TestRoundTripProperty checks Encode/Decode over randomized scalar and
// slice payloads.
func TestRoundTripProperty(t *testing.T) {
	schema := &Schema{
		Name: "q",
		Fields: []Field{
			{Name: "i", Kind: KindInt64},
			{Name: "u", Kind: KindUint64},
			{Name: "f", Kind: KindFloat64},
			{Name: "s", Kind: KindString},
			{Name: "b", Kind: KindBytes},
			{Name: "is", Kind: KindInt64Slice},
			{Name: "fs", Kind: KindFloat64Slice},
		},
	}
	f := func(i int64, u uint64, fl float64, s string, b []byte, is []int64, fs []float64) bool {
		if math.IsNaN(fl) {
			return true // NaN != NaN; representation still round-trips
		}
		for _, x := range fs {
			if math.IsNaN(x) {
				return true
			}
		}
		rec := Record{"i": i, "u": u, "f": fl, "s": s, "b": b, "is": is, "fs": fs}
		buf, err := Encode(schema, rec)
		if err != nil {
			return false
		}
		_, got, err := Decode(buf)
		if err != nil {
			return false
		}
		if got["i"] != i || got["u"] != u || got["f"] != fl || got["s"] != s {
			return false
		}
		gb := got["b"].([]byte)
		if len(gb) != len(b) {
			return false
		}
		for k := range b {
			if gb[k] != b[k] {
				return false
			}
		}
		gi := got["is"].([]int64)
		if len(gi) != len(is) {
			return false
		}
		for k := range is {
			if gi[k] != is[k] {
				return false
			}
		}
		gf := got["fs"].([]float64)
		if len(gf) != len(fs) {
			return false
		}
		for k := range fs {
			if gf[k] != fs[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeFuzzedCorruption flips bytes in a valid buffer and requires
// Decode to either succeed or fail with an error — never panic.
func TestDecodeFuzzedCorruption(t *testing.T) {
	schema := particleSchema()
	orig, err := Encode(schema, sampleRecord())
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(orig); pos++ {
		buf := append([]byte(nil), orig...)
		buf[pos] ^= 0x5A
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Decode panicked with byte %d corrupted: %v", pos, p)
				}
			}()
			_, _, _ = Decode(buf)
		}()
	}
}

func BenchmarkEncode1MParticleChunk(b *testing.B) {
	schema := &Schema{Name: "p", Fields: []Field{{Name: "arr", Kind: KindArray}}}
	data := make([]float64, 1<<17)
	rec := Record{"arr": &Array{Dims: []uint64{1 << 17}, Float64: data}}
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(schema, rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode1MParticleChunk(b *testing.B) {
	schema := &Schema{Name: "p", Fields: []Field{{Name: "arr", Kind: KindArray}}}
	data := make([]float64, 1<<17)
	buf, err := Encode(schema, Record{"arr": &Array{Dims: []uint64{1 << 17}, Float64: data}})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// goldenSchema and goldenRecord cover every field kind, with the float
// edge cases (-0, +Inf, a subnormal, MaxFloat64) and both array payloads.
func goldenSchema() *Schema {
	return &Schema{Name: "golden", Fields: []Field{
		{Name: "i", Kind: KindInt64},
		{Name: "u", Kind: KindUint64},
		{Name: "f", Kind: KindFloat64},
		{Name: "s", Kind: KindString},
		{Name: "b", Kind: KindBytes},
		{Name: "is", Kind: KindInt64Slice},
		{Name: "fs", Kind: KindFloat64Slice},
		{Name: "ga", Kind: KindArray},
		{Name: "la", Kind: KindArray},
	}}
}

func goldenRecord() Record {
	return Record{
		"i":  int64(-7),
		"u":  uint64(1) << 40,
		"f":  math.Pi,
		"s":  "particles",
		"b":  []byte{0xde, 0xad, 0xbe, 0xef},
		"is": []int64{-1, 0, math.MaxInt64},
		"fs": []float64{math.Copysign(0, -1), math.Inf(1), 1e-310},
		"ga": &Array{Dims: []uint64{2, 2}, Global: []uint64{4, 2}, Offsets: []uint64{2, 0},
			Float64: []float64{1.5, -2.5, 3.25, math.MaxFloat64}},
		"la": &Array{Dims: []uint64{3}, Int64: []int64{math.MinInt64, 42, -42}},
	}
}

// goldenHex is Encode(goldenSchema(), goldenRecord()) as the
// element-at-a-time encoder wrote it. Encoded chunks cross the fabric,
// the journal and checkpoints, so these bytes may not drift.
const goldenHex = "3153464606000000676f6c64656e09000000010000006901010000007502010000006603010000007304010000006205020000006973060200000066730702000000676108020000006c6108f9ffffffffffffff0000000000010000182d4454fb210940090000007061727469636c657304000000deadbeef0300000000000000ffffffffffffffff0000000000000000ffffffffffffff7f03000000000000000000000000000080000000000000f07f2be6708b68120000020000000200000000000000020000000000000002000000040000000000000002000000000000000200000002000000000000000000000000000000010400000000000000000000000000f83f00000000000004c00000000000000a40ffffffffffffef7f010000000300000000000000000000000000000002030000000000000000000000000000802a00000000000000d6ffffffffffffff"

func TestEncodeWireFormatIsStable(t *testing.T) {
	want, err := hex.DecodeString(goldenHex)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Encode(goldenSchema(), goldenRecord())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Encode = %x\nwant     %x", got, want)
	}
	if n, err := Size(goldenSchema(), goldenRecord()); err != nil || n != len(want) {
		t.Fatalf("Size = %d, %v; want %d", n, err, len(want))
	}
	if _, rec, err := Decode(want); err != nil || !reflect.DeepEqual(rec, goldenRecord()) {
		t.Fatalf("Decode(golden) = %v, %v", rec, err)
	}
}

// TestAppendKeepsPrefix: Append writes after what dst holds, leaves the
// prefix alone, grows at most once and returns dst untouched on error.
func TestAppendKeepsPrefix(t *testing.T) {
	want, err := Encode(goldenSchema(), goldenRecord())
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("HEADER")
	dst := make([]byte, len(prefix), len(prefix)+len(want))
	copy(dst, prefix)
	got, err := Append(dst, goldenSchema(), goldenRecord())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("Append = %x", got)
	}
	if &got[0] != &dst[0] {
		t.Fatal("Append reallocated a buffer that had room")
	}
	bad := goldenRecord()
	bad["u"] = "not a uint64"
	if out, err := Append(prefix, goldenSchema(), bad); err == nil || !bytes.Equal(out, prefix) {
		t.Fatalf("Append of a bad record = %x, %v", out, err)
	}
}

// TestEncodeAllocatesOnce: Encode sizes its buffer exactly, so a
// one-array record costs one allocation however large the array.
func TestEncodeAllocatesOnce(t *testing.T) {
	schema := &Schema{Name: "p", Fields: []Field{{Name: "arr", Kind: KindArray}}}
	rec := Record{"arr": &Array{Dims: []uint64{1 << 14, 8}, Float64: make([]float64, 8<<14)}}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := Encode(schema, rec); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("Encode made %v allocations, want 1", n)
	}
}

// oversizedLength is a valid one-field buffer whose float64 slice claims
// 2^40 elements but carries one.
func oversizedLength() []byte {
	buf, err := Encode(&Schema{Name: "x", Fields: []Field{{Name: "fs", Kind: KindFloat64Slice}}},
		Record{"fs": []float64{1}})
	if err != nil {
		panic(err)
	}
	// The length field sits right before the single 8-byte element.
	copy(buf[len(buf)-16:], []byte{0, 0, 0, 0, 0, 1, 0, 0})
	return buf
}

// TestDecodeRejectsOversizedLength: a length field larger than the
// buffer is an error found before the slice is allocated — allocating
// 2^40 float64s would abort the process.
func TestDecodeRejectsOversizedLength(t *testing.T) {
	if _, _, err := Decode(oversizedLength()); err == nil || !strings.Contains(err.Error(), "exceeds buffer") {
		t.Fatalf("Decode of an oversized float64 length: %v", err)
	}
}
