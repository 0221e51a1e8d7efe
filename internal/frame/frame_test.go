package frame

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

const testMagic = "PDTEST1\n"

// writeStream appends recs (each a header of hdrLen bytes plus a
// payload) to a fresh stream and returns its path and bytes.
func writeStream(t *testing.T, hdrLen int, recs [][2][]byte) (string, []byte) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stream"))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, testMagic, hdrLen)
	for _, r := range recs {
		crc, err := w.Append(r[0], r[1], 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := crc32.Update(crc32.ChecksumIEEE(r[1]), crc32.IEEETable, r[0]); crc != want {
			t.Fatalf("Append returned CRC %08x, want CRC-32 of payload‖header %08x", crc, want)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return f.Name(), b
}

// scanAll collects copies of every frame Scan accepts from path.
func scanAll(t *testing.T, path string, hdrLen int) (recs [][2][]byte, valid int64, torn bool, err error) {
	t.Helper()
	valid, torn, err = Scan(path, testMagic, hdrLen, nil, func(r Record) error {
		if !bytes.Equal(r.Frame, append(append(append([]byte(nil), r.Header...), r.Frame[hdrLen:hdrLen+Overhead]...), r.Payload...)) {
			t.Fatal("Frame is not Header, length, CRC and Payload")
		}
		recs = append(recs, [2][]byte{bytes.Clone(r.Header), bytes.Clone(r.Payload)})
		return nil
	})
	return recs, valid, torn, err
}

// FuzzFrame round-trips single frames and streams, and feeds arbitrary
// bytes to Open and Scan: nothing panics, and whatever either accepts
// re-encodes to exactly the bytes it was read from.
func FuzzFrame(f *testing.F) {
	f.Add(uint8(0), []byte("payload"), []byte{})
	f.Add(uint8(17), []byte("chunk bytes chunk bytes"), Seal(testMagic, make([]byte, 17), []byte("x")))
	f.Add(uint8(16), []byte{}, []byte(testMagic+"\x00\x00"))
	f.Add(uint8(4), []byte{0xff, 0, 1, 2, 3, 4, 5}, append([]byte(testMagic), 1, 2, 3, 4, 0xf0, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, hdrLen uint8, payload, data []byte) {
		n := int(hdrLen % 32)
		hdr := make([]byte, n)
		for i := range hdr {
			hdr[i] = byte(i*31) ^ hdrLen
		}

		// Single frame round trip.
		sealed := Seal(testMagic, hdr, payload)
		h, p, crc, err := Open(testMagic, n, sealed)
		if err != nil || !bytes.Equal(h, hdr) || !bytes.Equal(p, payload) || crc != crc32.ChecksumIEEE(payload) {
			t.Fatalf("Open(Seal) = %x, %x, %08x, %v", h, p, crc, err)
		}

		// Stream round trip: three frames of different payloads.
		recs := [][2][]byte{{hdr, payload}, {hdr, nil}, {hdr, append(payload, 'z')}}
		path, _ := writeStream(t, n, recs)
		got, valid, torn, err := scanAll(t, path, n)
		if err != nil || torn || len(got) != len(recs) {
			t.Fatalf("Scan of a clean stream: %d frames, torn=%v, err=%v", len(got), torn, err)
		}
		for i := range recs {
			if !bytes.Equal(got[i][0], recs[i][0]) || !bytes.Equal(got[i][1], recs[i][1]) {
				t.Fatalf("frame %d changed in the round trip", i)
			}
		}
		if st, _ := os.Stat(path); valid != st.Size() {
			t.Fatalf("valid prefix %d of a clean %d-byte stream", valid, st.Size())
		}

		// Arbitrary bytes as a single frame.
		if h, p, _, err := Open(testMagic, n, data); err == nil {
			if !bytes.Equal(Seal(testMagic, h, p), data) {
				t.Fatal("accepted single frame does not re-encode identically")
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open error %v does not wrap ErrCorrupt", err)
		}

		// Arbitrary bytes as a stream.
		raw := filepath.Join(t.TempDir(), "raw")
		if err := os.WriteFile(raw, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, valid, _, err = scanAll(t, raw, n)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || len(got) != 0 {
				t.Fatalf("Scan error %v after %d frames", err, len(got))
			}
			return
		}
		if valid > int64(len(data)) || (len(got) > 0 && valid == 0) {
			t.Fatalf("valid prefix %d of %d bytes holding %d frames", valid, len(data), len(got))
		}
		if len(got) == 0 {
			return
		}
		_, again := writeStream(t, n, got)
		if !bytes.Equal(again, data[:valid]) {
			t.Fatal("accepted stream prefix does not re-encode identically")
		}
	})
}

// TestHeaderIsUnderTheCRC flips every bit of a frame's header, length
// and CRC: no flip may yield a frame Open or Scan accepts.
func TestHeaderIsUnderTheCRC(t *testing.T) {
	hdr := []byte("writer-timestep!")
	payload := []byte("payload bytes")
	sealed := Seal(testMagic, hdr, payload)
	path, stream := writeStream(t, len(hdr), [][2][]byte{{hdr, payload}})
	for i := len(testMagic); i < len(testMagic)+len(hdr)+Overhead; i++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), sealed...)
			bad[i] ^= 1 << bit
			if _, _, _, err := Open(testMagic, len(hdr), bad); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("single frame: flip of byte %d bit %d accepted", i, bit)
			}
			bad = append([]byte(nil), stream...)
			bad[i] ^= 1 << bit
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, _, torn, err := scanAll(t, path, len(hdr)); err != nil || !torn || len(got) != 0 {
				t.Fatalf("stream: flip of byte %d bit %d gave %d frames, torn=%v, err=%v", i, bit, len(got), torn, err)
			}
		}
	}
}

// TestAppendAllocatesNothing pins the per-record cost of the journal
// and spill hot path.
func TestAppendAllocatesNothing(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stream"))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, testMagic, 17)
	defer w.Close()
	payload := make([]byte, 1000)
	if n := testing.AllocsPerRun(200, func() {
		var hdr [17]byte
		hdr[3] = 7
		if _, err := w.Append(hdr[:], payload, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Append allocates %.1f times per record", n)
	}
}

// TestCompactDropsSelectedFrames checks that Compact drops exactly the
// frames drop selects, leaves later appends in the compacted file, and
// that OpenStream cuts a torn tail before appending.
func TestCompactDropsSelectedFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream")
	w, err := OpenStream(path, testMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 4; i++ {
		if _, err := w.Append([]byte{i}, []byte{i, i}, 0); err != nil {
			t.Fatal(err)
		}
	}
	kept, err := w.Compact(func(hdr []byte) bool { return hdr[0]%2 == 0 })
	if err != nil || kept != 2 {
		t.Fatalf("Compact kept %d, err %v", kept, err)
	}
	if _, err := w.Append([]byte{9}, []byte("after"), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-opening cuts a torn tail off before appending.
	b, _ := os.ReadFile(path)
	if err := os.WriteFile(path, append(b, 1, 2, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	if w, err = OpenStream(path, testMagic, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte{10}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, torn, err := scanAll(t, path, 1)
	if err != nil || torn || len(got) != 4 || got[0][0][0] != 1 || got[1][0][0] != 3 || got[2][0][0] != 9 || got[3][0][0] != 10 {
		t.Fatalf("after compaction and reopen: %v, torn=%v, err=%v", got, torn, err)
	}
}

// TestSyncAheadKeepsTheStream checks that starting writeback on every
// append allocates nothing, survives a Compact swapping the file, and
// leaves every frame readable.
func TestSyncAheadKeepsTheStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream")
	w, err := OpenStream(path, testMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.SyncAhead(1)
	payload := bytes.Repeat([]byte{7}, 5000)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := w.Append([]byte{1}, payload, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Append with SyncAhead allocates %.1f times per record", n)
	}
	if kept, err := w.Compact(func(hdr []byte) bool { return false }); err != nil || kept != 21 {
		t.Fatalf("Compact kept %d, err %v", kept, err)
	}
	if _, err := w.Append([]byte{2}, payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(w.Sync(), w.Close()); err != nil {
		t.Fatal(err)
	}
	got, _, torn, err := scanAll(t, path, 1)
	if err != nil || torn || len(got) != 22 || got[21][0][0] != 2 || !bytes.Equal(got[21][1], payload) {
		t.Fatalf("read back %d frames, torn=%v, err=%v", len(got), torn, err)
	}
}
