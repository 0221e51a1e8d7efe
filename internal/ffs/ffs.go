// Package ffs implements a self-describing binary wire format in the
// spirit of FFS ("native data representation"): every encoded buffer
// carries its own schema, so a receiver can decode data whose structure it
// has never seen, and metadata (array dimensions, global-array placement)
// rides along with the payload.
//
// PreDatA packs each compute process's output into one contiguous buffer —
// a "packed partial data chunk" — using this format (Stage 1b of the data
// flow) and staging-node operators introspect the chunks as they stream by.
package ffs

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Magic identifies an FFS-encoded buffer.
const Magic = 0x46465331 // "FFS1"

// Kind enumerates the value types a field can carry.
type Kind uint8

// Field kinds. Scalars are fixed-width little-endian; slices and strings
// are length-prefixed; arrays carry dimension metadata.
const (
	KindInvalid Kind = iota
	KindInt64
	KindUint64
	KindFloat64
	KindString
	KindBytes
	KindInt64Slice
	KindFloat64Slice
	KindArray // multi-dimensional array with placement metadata
)

var kindNames = map[Kind]string{
	KindInt64:        "int64",
	KindUint64:       "uint64",
	KindFloat64:      "float64",
	KindString:       "string",
	KindBytes:        "bytes",
	KindInt64Slice:   "[]int64",
	KindFloat64Slice: "[]float64",
	KindArray:        "array",
}

// String returns the human-readable name of the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Field describes one named value in a schema.
type Field struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of fields with a group name. It corresponds to
// an ADIOS output "data group" definition.
type Schema struct {
	Name   string
	Fields []Field
}

// FieldIndex returns the position of the named field, or -1.
func (s *Schema) FieldIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Array is a multi-dimensional numeric array with optional global-array
// placement metadata: a partial chunk of a global array records the global
// dimensions and this chunk's offsets within them, exactly the metadata an
// ADIOS global array write provides.
type Array struct {
	Dims    []uint64 // local dimensions of this chunk
	Global  []uint64 // global array dimensions; nil for purely local arrays
	Offsets []uint64 // chunk offset in the global array; nil for local
	Float64 []float64
	Int64   []int64
}

// Elems returns the number of elements implied by Dims.
func (a *Array) Elems() uint64 {
	n := uint64(1)
	for _, d := range a.Dims {
		n *= d
	}
	if len(a.Dims) == 0 {
		return 0
	}
	return n
}

// Validate checks dimensional consistency of the array.
func (a *Array) Validate() error {
	if len(a.Dims) == 0 {
		return fmt.Errorf("ffs: array has no dimensions")
	}
	want := a.Elems()
	var have uint64
	switch {
	case a.Float64 != nil && a.Int64 != nil:
		return fmt.Errorf("ffs: array has both float64 and int64 payloads")
	case a.Float64 != nil:
		have = uint64(len(a.Float64))
	case a.Int64 != nil:
		have = uint64(len(a.Int64))
	default:
		return fmt.Errorf("ffs: array has no payload")
	}
	if have != want {
		return fmt.Errorf("ffs: array dims %v imply %d elements, payload has %d", a.Dims, want, have)
	}
	if a.Global != nil {
		if len(a.Global) != len(a.Dims) || len(a.Offsets) != len(a.Dims) {
			return fmt.Errorf("ffs: global/offset rank mismatch: dims %v global %v offsets %v",
				a.Dims, a.Global, a.Offsets)
		}
		for i := range a.Dims {
			if a.Offsets[i]+a.Dims[i] > a.Global[i] {
				return fmt.Errorf("ffs: chunk [%d:%d) exceeds global dim %d of %d",
					a.Offsets[i], a.Offsets[i]+a.Dims[i], i, a.Global[i])
			}
		}
	}
	return nil
}

// Record maps field names to values. Value types must match the schema:
// int64, uint64, float64, string, []byte, []int64, []float64, or *Array.
type Record map[string]any

// writer is a little-endian buffer that Append sizes exactly before
// writing, so no write regrows it.
type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) bytes(b []byte) { w.u32(uint32(len(b))); w.buf = append(w.buf, b...) }

// words extends the buffer by n 8-byte words, within its capacity, and
// returns them for the caller to fill. The word loops here and in
// reader test len(b) >= 8 beside the element index, which is always
// true but lets the compiler drop the per-element bounds checks.
func (w *writer) words(n int) []byte {
	l := len(w.buf)
	w.buf = w.buf[:l+8*n]
	return w.buf[l:]
}

func (w *writer) u64s(v []uint64) {
	w.u32(uint32(len(v)))
	b := w.words(len(v))
	for i := 0; i < len(v) && len(b) >= 8; i++ {
		binary.LittleEndian.PutUint64(b[:8], v[i])
		b = b[8:]
	}
}
func (w *writer) f64s(v []float64) {
	w.u64(uint64(len(v)))
	b := w.words(len(v))
	for i := 0; i < len(v) && len(b) >= 8; i++ {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(v[i]))
		b = b[8:]
	}
}
func (w *writer) i64s(v []int64) {
	w.u64(uint64(len(v)))
	b := w.words(len(v))
	for i := 0; i < len(v) && len(b) >= 8; i++ {
		binary.LittleEndian.PutUint64(b[:8], uint64(v[i]))
		b = b[8:]
	}
}

// reader is a bounds-checked little-endian cursor.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ffs: "+format, args...)
	}
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.fail("truncated buffer: need %d bytes at offset %d of %d", n, r.off, len(r.buf))
		return false
	}
	return true
}

func (r *reader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) i64() int64   { return int64(r.u64()) }

func (r *reader) str() string {
	n := int(r.u32())
	if !r.need(n) {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) bytesField() []byte {
	n := int(r.u32())
	if !r.need(n) {
		return nil
	}
	b := make([]byte, n)
	copy(b, r.buf[r.off:r.off+n])
	r.off += n
	return b
}

// words verifies that n 8-byte words follow and consumes them.
func (r *reader) words(n int) []byte {
	if !r.need(8 * n) {
		return nil
	}
	b := r.buf[r.off : r.off+8*n]
	r.off += 8 * n
	return b
}

// wordCount reads a u64 element count and verifies that many 8-byte
// words follow, so a corrupt count fails before anything is allocated.
func (r *reader) wordCount(what string) int {
	n := r.u64()
	if n > uint64(len(r.buf)-r.off)/8 {
		r.fail("%s slice length %d exceeds buffer", what, n)
		return 0
	}
	return int(n)
}

func (r *reader) u64s() []uint64 {
	n := int(r.u32())
	if n == 0 {
		return nil
	}
	b := r.words(n)
	if r.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := 0; i < len(out) && len(b) >= 8; i++ {
		out[i] = binary.LittleEndian.Uint64(b[:8])
		b = b[8:]
	}
	return out
}

func (r *reader) f64s() []float64 {
	n := r.wordCount("float64")
	b := r.words(n)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := 0; i < len(out) && len(b) >= 8; i++ {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:8]))
		b = b[8:]
	}
	return out
}

func (r *reader) i64s() []int64 {
	n := r.wordCount("int64")
	b := r.words(n)
	if r.err != nil {
		return nil
	}
	out := make([]int64, n)
	for i := 0; i < len(out) && len(b) >= 8; i++ {
		out[i] = int64(binary.LittleEndian.Uint64(b[:8]))
		b = b[8:]
	}
	return out
}

// Encode serializes the record under the schema into a self-describing
// buffer: header, schema description, then field values in schema order.
// The buffer is allocated once, at its exact size.
func Encode(schema *Schema, rec Record) ([]byte, error) {
	return Append(nil, schema, rec)
}

// Append appends Encode's bytes to dst, growing it at most once, to
// exactly the room Size reports, and returns the extended buffer. On
// error dst is returned unchanged.
func Append(dst []byte, schema *Schema, rec Record) ([]byte, error) {
	n, err := Size(schema, rec)
	if err != nil {
		return dst, err
	}
	if cap(dst)-len(dst) < n {
		grown := make([]byte, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	w := writer{buf: dst}
	w.u32(Magic)
	w.str(schema.Name)
	w.u32(uint32(len(schema.Fields)))
	for _, f := range schema.Fields {
		w.str(f.Name)
		w.u8(uint8(f.Kind))
	}
	for _, f := range schema.Fields {
		encodeValue(&w, f.Kind, rec[f.Name])
	}
	return w.buf, nil
}

// Size returns the length of Encode(schema, rec), or the error Encode
// would return: a missing field, a value of the wrong type, or an
// inconsistent array.
func Size(schema *Schema, rec Record) (int, error) {
	n := 4 + 4 + len(schema.Name) + 4
	for _, f := range schema.Fields {
		n += 4 + len(f.Name) + 1
	}
	for _, f := range schema.Fields {
		v, ok := rec[f.Name]
		if !ok {
			return 0, fmt.Errorf("ffs: record missing field %q", f.Name)
		}
		m, err := valueSize(f, v)
		if err != nil {
			return 0, err
		}
		n += m
	}
	return n, nil
}

// valueSize type-checks one field value and returns its encoded length.
func valueSize(f Field, v any) (int, error) {
	ok := false
	n := 0
	switch f.Kind {
	case KindInt64:
		_, ok = v.(int64)
		n = 8
	case KindUint64:
		_, ok = v.(uint64)
		n = 8
	case KindFloat64:
		_, ok = v.(float64)
		n = 8
	case KindString:
		var x string
		x, ok = v.(string)
		n = 4 + len(x)
	case KindBytes:
		var x []byte
		x, ok = v.([]byte)
		n = 4 + len(x)
	case KindInt64Slice:
		var x []int64
		x, ok = v.([]int64)
		n = 8 + 8*len(x)
	case KindFloat64Slice:
		var x []float64
		x, ok = v.([]float64)
		n = 8 + 8*len(x)
	case KindArray:
		var a *Array
		if a, ok = v.(*Array); !ok {
			break
		}
		if err := a.Validate(); err != nil {
			return 0, fmt.Errorf("field %q: %w", f.Name, err)
		}
		n = 3*4 + 8*(len(a.Dims)+len(a.Global)+len(a.Offsets)) + 1 + 8 + 8*len(a.Float64) + 8*len(a.Int64)
	default:
		return 0, fmt.Errorf("ffs: field %q has unsupported kind %v", f.Name, f.Kind)
	}
	if !ok {
		return 0, fmt.Errorf("ffs: field %q expects %s, got %T", f.Name, f.Kind, v)
	}
	return n, nil
}

// encodeValue writes one value that valueSize accepted.
func encodeValue(w *writer, kind Kind, v any) {
	switch kind {
	case KindInt64:
		w.u64(uint64(v.(int64)))
	case KindUint64:
		w.u64(v.(uint64))
	case KindFloat64:
		w.u64(math.Float64bits(v.(float64)))
	case KindString:
		w.str(v.(string))
	case KindBytes:
		w.bytes(v.([]byte))
	case KindInt64Slice:
		w.i64s(v.([]int64))
	case KindFloat64Slice:
		w.f64s(v.([]float64))
	case KindArray:
		a := v.(*Array)
		w.u64s(a.Dims)
		w.u64s(a.Global)
		w.u64s(a.Offsets)
		if a.Float64 != nil {
			w.u8(1)
			w.f64s(a.Float64)
		} else {
			w.u8(2)
			w.i64s(a.Int64)
		}
	}
}

// Decode parses a self-describing buffer produced by Encode, returning the
// embedded schema and the field values.
func Decode(buf []byte) (*Schema, Record, error) {
	r := &reader{buf: buf}
	if m := r.u32(); r.err == nil && m != Magic {
		return nil, nil, fmt.Errorf("ffs: bad magic 0x%08x", m)
	}
	schema := &Schema{Name: r.str()}
	nf := int(r.u32())
	if r.err != nil {
		return nil, nil, r.err
	}
	if nf < 0 || nf > 1<<20 {
		return nil, nil, fmt.Errorf("ffs: implausible field count %d", nf)
	}
	schema.Fields = make([]Field, nf)
	for i := range schema.Fields {
		schema.Fields[i] = Field{Name: r.str(), Kind: Kind(r.u8())}
	}
	rec := make(Record, nf)
	for _, f := range schema.Fields {
		v, err := decodeValue(r, f)
		if err != nil {
			return nil, nil, err
		}
		rec[f.Name] = v
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	if r.off != len(buf) {
		return nil, nil, fmt.Errorf("ffs: %d trailing bytes after record", len(buf)-r.off)
	}
	return schema, rec, nil
}

func decodeValue(r *reader, f Field) (any, error) {
	switch f.Kind {
	case KindInt64:
		return r.i64(), r.err
	case KindUint64:
		return r.u64(), r.err
	case KindFloat64:
		return r.f64(), r.err
	case KindString:
		return r.str(), r.err
	case KindBytes:
		return r.bytesField(), r.err
	case KindInt64Slice:
		return r.i64s(), r.err
	case KindFloat64Slice:
		return r.f64s(), r.err
	case KindArray:
		a := &Array{Dims: r.u64s(), Global: r.u64s(), Offsets: r.u64s()}
		switch tag := r.u8(); tag {
		case 1:
			a.Float64 = r.f64s()
		case 2:
			a.Int64 = r.i64s()
		default:
			if r.err == nil {
				return nil, fmt.Errorf("ffs: field %q has bad array payload tag %d", f.Name, tag)
			}
		}
		if r.err != nil {
			return nil, r.err
		}
		if err := a.Validate(); err != nil {
			return nil, err
		}
		return a, nil
	default:
		return nil, fmt.Errorf("ffs: field %q has unsupported kind %v", f.Name, f.Kind)
	}
}

// DecodeSchema parses only the schema header of an encoded buffer, without
// materializing values — staging operators use this to route chunks by
// group without paying for a full decode.
func DecodeSchema(buf []byte) (*Schema, error) {
	r := &reader{buf: buf}
	if m := r.u32(); r.err == nil && m != Magic {
		return nil, fmt.Errorf("ffs: bad magic 0x%08x", m)
	}
	schema := &Schema{Name: r.str()}
	nf := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if nf < 0 || nf > 1<<20 {
		return nil, fmt.Errorf("ffs: implausible field count %d", nf)
	}
	schema.Fields = make([]Field, nf)
	for i := range schema.Fields {
		schema.Fields[i] = Field{Name: r.str(), Kind: Kind(r.u8())}
	}
	if r.err != nil {
		return nil, r.err
	}
	return schema, nil
}
