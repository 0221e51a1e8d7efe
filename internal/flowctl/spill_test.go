package flowctl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
)

func TestSegmentRoundtrip(t *testing.T) {
	dir := t.TempDir()
	seg, err := CreateSegment(dir, "roundtrip-*.seg")
	if err != nil {
		t.Fatalf("CreateSegment: %v", err)
	}
	type rec struct {
		writer   int
		timestep int64
		payload  []byte
	}
	var want []rec
	for i := 0; i < 17; i++ {
		r := rec{
			writer:   i % 5,
			timestep: int64(100 + i),
			payload:  []byte(fmt.Sprintf("chunk-%02d-%s", i, string(make([]byte, i*7)))),
		}
		want = append(want, r)
		if err := seg.Append(r.writer, r.timestep, r.payload); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if seg.Chunks() != 17 {
		t.Fatalf("Chunks = %d, want 17", seg.Chunks())
	}
	if err := seg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := seg.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	var got []rec
	err = ReplaySegment(seg.Path(), func(writer int, timestep int64, payload []byte) error {
		got = append(got, rec{writer, timestep, append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("ReplaySegment: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].writer != want[i].writer || got[i].timestep != want[i].timestep ||
			string(got[i].payload) != string(want[i].payload) {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, got[i], want[i])
		}
	}
	if err := os.Remove(seg.Path()); err != nil {
		t.Fatalf("remove segment: %v", err)
	}
}

func TestSegmentEmptyReplay(t *testing.T) {
	seg, err := CreateSegment(t.TempDir(), "empty-*.seg")
	if err != nil {
		t.Fatalf("CreateSegment: %v", err)
	}
	if err := seg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	n := 0
	if err := ReplaySegment(seg.Path(), func(int, int64, []byte) error { n++; return nil }); err != nil {
		t.Fatalf("ReplaySegment of empty segment: %v", err)
	}
	if n != 0 {
		t.Fatalf("replayed %d records from empty segment", n)
	}
}

func TestSegmentAppendAfterClose(t *testing.T) {
	seg, err := CreateSegment(t.TempDir(), "closed-*.seg")
	if err != nil {
		t.Fatalf("CreateSegment: %v", err)
	}
	seg.Close()
	if err := seg.Append(0, 1, []byte("x")); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

func TestSegmentCorruption(t *testing.T) {
	write := func(t *testing.T) string {
		t.Helper()
		seg, err := CreateSegment(t.TempDir(), "corrupt-*.seg")
		if err != nil {
			t.Fatalf("CreateSegment: %v", err)
		}
		if err := seg.Append(3, 42, []byte("payload-payload-payload")); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := seg.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return seg.Path()
	}
	replay := func(path string) error {
		return ReplaySegment(path, func(int, int64, []byte) error { return nil })
	}

	t.Run("bad magic", func(t *testing.T) {
		path := write(t)
		data, _ := os.ReadFile(path)
		data[0] ^= 0xff
		os.WriteFile(path, data, 0o644)
		if err := replay(path); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("err = %v, want ErrSegmentCorrupt", err)
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		path := write(t)
		data, _ := os.ReadFile(path)
		data[len(data)-1] ^= 0xff
		os.WriteFile(path, data, 0o644)
		if err := replay(path); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("err = %v, want ErrSegmentCorrupt", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		path := write(t)
		data, _ := os.ReadFile(path)
		os.WriteFile(path, data[:len(data)-5], 0o644)
		if err := replay(path); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("err = %v, want ErrSegmentCorrupt", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		path := write(t)
		data, _ := os.ReadFile(path)
		os.WriteFile(path, data[:len(segmentMagic)+10], 0o644)
		if err := replay(path); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("err = %v, want ErrSegmentCorrupt", err)
		}
	})
	t.Run("fn error propagates", func(t *testing.T) {
		path := write(t)
		sentinel := errors.New("stop")
		err := ReplaySegment(path, func(int, int64, []byte) error { return sentinel })
		if !errors.Is(err, sentinel) {
			t.Fatalf("err = %v, want sentinel", err)
		}
	})
}

type spillRec struct {
	writer   int
	timestep int64
	payload  string
}

// spillRecs is the fixed record set the corruption tests spill.
var spillRecs = []spillRec{{3, 42, "first-chunk-bytes"}, {7, 43, "second"}, {1, 44, ""}}

// writeSpillRecs spills spillRecs to a fresh segment and returns its
// bytes and the offset of each record.
func writeSpillRecs(t testing.TB) (data []byte, offsets []int) {
	t.Helper()
	seg, err := CreateSegment(t.TempDir(), "flip-*.seg")
	if err != nil {
		t.Fatalf("CreateSegment: %v", err)
	}
	for _, r := range spillRecs {
		if err := seg.Append(r.writer, r.timestep, []byte(r.payload)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := seg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if data, err = os.ReadFile(seg.Path()); err != nil {
		t.Fatal(err)
	}
	const frameHeader = 8 + 8 + 4 + 4 // writer, timestep, length, CRC
	off := len(segmentMagic)
	for _, r := range spillRecs {
		offsets = append(offsets, off)
		off += frameHeader + len(r.payload)
	}
	return data, offsets
}

// replayDamaged writes data as a segment and replays it, failing the
// test if replay delivers anything but a prefix of spillRecs.
func replayDamaged(t testing.TB, data []byte, what string) (int, error) {
	t.Helper()
	path := t.TempDir() + "/damaged.seg"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	err := ReplaySegment(path, func(writer int, timestep int64, payload []byte) error {
		if n >= len(spillRecs) || (spillRec{writer, timestep, string(payload)}) != spillRecs[n] {
			t.Fatalf("%s: replay delivered record %d as (writer %d, timestep %d, %q), never spilled",
				what, n, writer, timestep, payload)
		}
		n++
		return nil
	})
	return n, err
}

// TestSegmentHeaderBitFlips flips every bit of every record header
// (writer, timestep, length, CRC): replay must fail loudly and never
// deliver a record with a writer or timestep that was not spilled.
func TestSegmentHeaderBitFlips(t *testing.T) {
	data, offsets := writeSpillRecs(t)
	for k, off := range offsets {
		for i := off; i < off+24; i++ {
			for bit := 0; bit < 8; bit++ {
				bad := bytes.Clone(data)
				bad[i] ^= 1 << bit
				what := fmt.Sprintf("flip of byte %d bit %d", i, bit)
				n, err := replayDamaged(t, bad, what)
				if !errors.Is(err, ErrSegmentCorrupt) || n > k {
					t.Fatalf("%s: replayed %d records, err = %v; want ErrSegmentCorrupt after at most %d", what, n, err, k)
				}
			}
		}
	}
}

// TestSegmentCorruptLengthDoesNotAllocate sets a record's length field
// to nearly 4 GiB: replay must report corruption without allocating
// for the bogus length.
func TestSegmentCorruptLengthDoesNotAllocate(t *testing.T) {
	data, offsets := writeSpillRecs(t)
	binary.LittleEndian.PutUint32(data[offsets[1]+16:], 0xFFFFFFF0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := replayDamaged(t, data, "corrupt length")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSegmentCorrupt) || n != 1 {
		t.Fatalf("replayed %d records, err = %v; want ErrSegmentCorrupt after 1", n, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("replay of a corrupt length allocated %d bytes", grew)
	}
}

// FuzzSpillBitFlip flips one byte anywhere in a closed segment: replay
// must not panic, must report ErrSegmentCorrupt, and may deliver only a
// prefix of the records that were spilled.
func FuzzSpillBitFlip(f *testing.F) {
	f.Add(uint(0), byte(0xff))
	f.Add(uint(8), byte(0x01))
	f.Add(uint(24), byte(0x80))
	f.Add(uint(40), byte(0x55))
	f.Fuzz(func(t *testing.T, pos uint, mask byte) {
		if mask == 0 {
			t.Skip()
		}
		data, _ := writeSpillRecs(t)
		off := int(pos % uint(len(data)))
		data[off] ^= mask
		if _, err := replayDamaged(t, data, fmt.Sprintf("flip at %d", off)); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrSegmentCorrupt", off, err)
		}
	})
}
