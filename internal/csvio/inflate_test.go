package csvio

import (
	"archive/zip"
	"bytes"
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
// next payload. CI runs it raced with -count=10.
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
			if err.Error() != refErr.Error() {
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
	before := runtime.NumGoroutine()
	_, err := buf.decodeInflating(&panickingReader{r: bytes.NewReader(csvText), left: 5 * chunkSize})
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

// panickingReader reads from r, then panics once left bytes have been read.
type panickingReader struct {
	r    io.Reader
	left int
}

func (p *panickingReader) Read(b []byte) (int, error) {
	if p.left <= 0 {
		panic("reader fault")
	}
	n, err := p.r.Read(b[:min(len(b), p.left)])
	p.left -= n
	return n, err
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
