package csvio

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestDecodeFailsMidStream stops decodes part way through a 30 s capture:
// a bad row in a late chunk, a corrupt deflate block, a truncated member
// and a flipped CRC-32. Each fails as the serial decode fails, with the same
// error, leaves no goroutine behind, and leaves the buffer ready for the
// next payload. The one error allowed to differ is the inflater's own where
// the serial decode fails inside compress/flate. CI runs it raced with
// -count=10.
func TestDecodeFailsMidStream(t *testing.T) {
	acq := testAcquisition(t, 30)
	good, err := CompressAcquisition(acq)
	if err != nil {
		t.Fatal(err)
	}
	csvText := encodeCSV(t, acq)
	if len(csvText) < 8*chunkSize {
		t.Fatalf("%d B of CSV fill fewer than 8 chunks", len(csvText))
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"bad row in a late chunk", createdPayload(t, breakRowAfter(csvText, len(csvText)-chunkSize/2))},
		{"corrupt deflate block", rewrapMember(t, good, func(_ *zip.FileHeader, raw []byte) []byte {
			raw = bytes.Clone(raw)
			raw[len(raw)/2] ^= 0xff
			return raw
		})},
		{"truncated member", rewrapMember(t, good, func(h *zip.FileHeader, raw []byte) []byte {
			h.CompressedSize64 = uint64(len(raw) * 3 / 4)
			return raw[:len(raw)*3/4]
		})},
		{"flipped CRC-32", rewrapMember(t, good, func(h *zip.FileHeader, raw []byte) []byte {
			h.CRC32 ^= 1
			return raw
		})},
	}
	var buf, refBuf DecodeBuffer
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			_, err := DecompressAcquisitionBuffer(tc.payload, &buf)
			waitGoroutines(t, before)
			_, refErr := serialDecompress(tc.payload, &refBuf)
			if err == nil || refErr == nil {
				t.Fatalf("decode error %v, serial decode error %v; want both to fail", err, refErr)
			}
			if err.Error() != refErr.Error() && !(inflateFailure(err) && flateFailure(refErr)) {
				t.Fatalf("decode error %q, serial decode error %q", err, refErr)
			}
			if !errors.Is(err, ErrBadCSV) {
				t.Fatalf("error %v should wrap ErrBadCSV", err)
			}
			assertSamplesIdentical(t, decompressBuffer(t, good, &buf), acq)
		})
	}
}

// TestInflatePanicBecomesError: a panic on the inflating goroutine, which
// the caller's recover cannot reach, ends the decode with an error instead
// of the process, and the buffer decodes the next payload.
func TestInflatePanicBecomesError(t *testing.T) {
	acq := testAcquisition(t, 30)
	csvText := encodeCSV(t, acq)
	var buf DecodeBuffer
	buf.z.openRaw(nil)
	before := runtime.NumGoroutine()
	_, err := buf.decodeInflating(func(z *inflater) error {
		if err := z.write(csvText[:5*chunkSize]); err != nil {
			return err
		}
		panic("reader fault")
	})
	waitGoroutines(t, before)
	if err == nil || !strings.Contains(err.Error(), "inflating panicked: reader fault") {
		t.Fatalf("error %v, want the inflater's panic", err)
	}
	payload, err := CompressAcquisition(acq)
	if err != nil {
		t.Fatal(err)
	}
	assertSamplesIdentical(t, decompressBuffer(t, payload, &buf), acq)
}

// waitGoroutines fails tb unless the goroutine count falls back to want. A
// decode's inflater may still be returning from its last call when the
// decode returns, but it must not stay.
func waitGoroutines(tb testing.TB, want int) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			tb.Fatalf("%d goroutines after the decode, %d before", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// breakRowAfter returns csvText with the time of the first row that starts
// after offset replaced by "x", which the scanner rejects.
func breakRowAfter(csvText []byte, offset int) []byte {
	broken := bytes.Clone(csvText)
	broken[offset+bytes.IndexByte(broken[offset:], '\n')+1] = 'x'
	return broken
}

// createdPayload archives csvText the way older phones did: one
// zip.Writer.Create member, deflated by archive/zip itself.
func createdPayload(tb testing.TB, csvText []byte) []byte {
	return archiveMember(tb, &zip.FileHeader{Name: MeasurementsFileName, Method: zip.Deflate}, csvText)
}

// storedPayload archives csvText uncompressed.
func storedPayload(tb testing.TB, csvText []byte) []byte {
	return archiveMember(tb, &zip.FileHeader{Name: MeasurementsFileName, Method: zip.Store}, csvText)
}

func archiveMember(tb testing.TB, h *zip.FileHeader, content []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	w, err := zw.CreateHeader(h)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.Write(content); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// rewrapMember re-archives payload's measurements member as edit leaves its
// header and its raw (still compressed) bytes, so a test can break one thing
// while the archive around it stays valid.
func rewrapMember(tb testing.TB, payload []byte, edit func(h *zip.FileHeader, raw []byte) []byte) []byte {
	tb.Helper()
	f, err := measurements(payload)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := f.OpenRaw()
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		tb.Fatal(err)
	}
	h := f.FileHeader
	raw = edit(&h, raw)
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	w, err := zw.CreateRaw(&h)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeMemoryIndependentOfLength is the decode's memory bound: a
// buffer warmed on a 600 s capture decodes the 30 s and 600 s payloads with
// the same allocations, count and bytes alike, and its chunk ring, the only
// CSV it holds, is as large as after a 2 s decode.
func TestDecodeMemoryIndependentOfLength(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes a 600 s capture")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items, so allocation counts vary")
	}
	short := mustCompress(t, testAcquisition(t, 30))
	long := mustCompress(t, testAcquisition(t, 600))
	var fresh, buf DecodeBuffer
	decompressBuffer(t, mustCompress(t, testAcquisition(t, 2)), &fresh)
	decompressBuffer(t, long, &buf)
	// Measured as testing.AllocsPerRun measures: after a warm-up run, on one
	// P, so that the runtime's per-P caches of channel waiters settle.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cost := func(payload []byte) (allocs, bytes uint64) {
		const runs = 5
		decompressBuffer(t, payload, &buf)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			decompressBuffer(t, payload, &buf)
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	shortAllocs, shortBytes := cost(short)
	longAllocs, longBytes := cost(long)
	t.Logf("30 s: %d allocs, %d B; 600 s: %d allocs, %d B; ring %d B", shortAllocs, shortBytes, longAllocs, longBytes, ringBytes(&buf))
	if shortAllocs != longAllocs || shortBytes != longBytes {
		t.Fatalf("30 s payload allocates %d times, %d B; 600 s payload %d times, %d B",
			shortAllocs, shortBytes, longAllocs, longBytes)
	}
	if got, want := ringBytes(&buf), ringBytes(&fresh); got != want {
		t.Fatalf("ring holds %d B after a 600 s capture, %d B after a 2 s one", got, want)
	}
}

// TestDecodeMemoryBoundedByHeader decodes payloads that inflate a few KB
// into many MB the format does not allow: one row of 32 MiB under a
// one-carrier header, and a header of a million channels. Each is rejected
// with less than 1 MB allocated, the fresh DecodeBuffer's ring included:
// a line that fills the line reader's buffer is past every bound, so none
// is gathered.
func TestDecodeMemoryBoundedByHeader(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items, so allocations vary")
	}
	longRow := append([]byte("time_s,ch_500000Hz\n"), bytes.Repeat([]byte{'0'}, 32<<20)...)
	wideHeader := append([]byte("time_s"), bytes.Repeat([]byte(",ch_1Hz"), 1<<20)...)
	for _, tc := range []struct {
		name string
		csv  []byte
	}{
		{"32 MiB row", append(longRow, ",1\n0.002,1\n"...)},
		{"a million channels", append(wideHeader, "\n0,1\n"...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := createdPayload(t, tc.csv)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := DecompressAcquisition(payload)
			runtime.ReadMemStats(&after)
			allocated := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d B payload, %d B of CSV: %d B allocated, %v", len(payload), len(tc.csv), allocated, err)
			if !errors.Is(err, ErrBadCSV) {
				t.Fatalf("error %v, want ErrBadCSV", err)
			}
			if allocated >= 1<<20 {
				t.Fatalf("allocated %d B before rejecting the payload", allocated)
			}
		})
	}
}

// ringBytes is the size of buf's chunk ring.
func ringBytes(buf *DecodeBuffer) int {
	n := 0
	for _, c := range buf.ring.chunks {
		n += cap(c.data)
	}
	return n
}

// BenchmarkInflate inflates a 30 s capture's level-2 member, through the
// ring with the scan replaced by a plain read, and through compress/flate.
func BenchmarkInflate(b *testing.B) {
	raw := rawDeflate(b, mustCompress(b, testAcquisition(b, 30)))
	var buf DecodeBuffer
	b.Run("inflater", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf.z.openRaw(raw)
			buf.ring.start(&buf.z, (*inflater).inflate)
			if _, err := io.Copy(io.Discard, &buf.ring); err != nil {
				b.Fatal(err)
			}
			buf.ring.stop()
		}
	})
	b.Run("flate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := io.Copy(io.Discard, flate.NewReader(bytes.NewReader(raw))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
