package ffs

import "testing"

// FuzzDecode hardens the self-describing decoder: arbitrary bytes must
// either decode or fail with an error — never panic or hang. Staging
// nodes decode buffers that crossed a network; robustness here is
// robustness of the whole staging area.
func FuzzDecode(f *testing.F) {
	schema := &Schema{
		Name: "seed",
		Fields: []Field{
			{Name: "i", Kind: KindInt64},
			{Name: "fs", Kind: KindFloat64Slice},
			{Name: "a", Kind: KindArray},
		},
	}
	valid, err := Encode(schema, Record{
		"i":  int64(7),
		"fs": []float64{1, 2, 3},
		"a": &Array{Dims: []uint64{2, 2}, Global: []uint64{4, 4},
			Offsets: []uint64{0, 0}, Float64: []float64{1, 2, 3, 4}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x53, 0x46, 0x46}) // magic only
	f.Add(valid[:len(valid)/2])
	f.Add(oversizedLength())
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = Decode(data)
		_, _ = DecodeSchema(data)
	})
}
