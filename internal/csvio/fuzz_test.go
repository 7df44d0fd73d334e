package csvio

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"medsen/internal/lockin"
	"medsen/internal/sigproc"
)

// FuzzDecodeAcquisition hardens the CSV decoder and pins it to the
// encoding/csv decoder it replaced: arbitrary text must yield an error or a
// structurally consistent acquisition with a finite, positive sample rate
// and finite samples, never a panic, and both decoders must accept and
// reject the same inputs with bit-identical carriers, rate and samples. There
// are two exceptions, inputs no phone writes, which the scanner must reject
// whatever encoding/csv makes of them: a quote, which encoding/csv unquotes,
// and a header, row or row count past the decoder's bounds (see pastBound).
func FuzzDecodeAcquisition(f *testing.F) {
	f.Add("time_s,ch_500000Hz\n0,1\n0.002,0.99\n")
	f.Add("time_s,ch_500000Hz,ch_2000000Hz\n0,1,1\n0.002,1,1\n0.004,0.9,0.95\n")
	f.Add("")
	f.Add("garbage")
	f.Add("time_s,chX\n0,1\n")
	f.Add("time_s,ch_500000Hz\n0,1\n0,1\n")
	f.Add("time_s,ch_500000Hz\n0,NaN\n0.002,+Inf\n")
	f.Add("time_s,ch_500000Hz\r\n0,1\r\n0.002,0.99\r\n")
	f.Add("\ntime_s,ch_500000Hz\n\n0,1\n\r\n0.002,0.99\n\n")
	f.Add("time_s,ch_500000Hz\n0,1\n0.002,0.99")
	f.Add("time_s,ch_500000Hz\n0,1\n0.002,0.99\r")
	f.Add("time_s,ch_500000Hz\n0,\"1\"\n0.002,0.99\n")
	f.Add("time_s,ch_500000Hz\n" + strings.Repeat("0", readBufferSize+100) + ",1\n0.002,0.99\n")
	f.Add("time_s,ch_500000Hzjunk\n0,1\n0.002,0.99\n")
	f.Add("time_s,ch_+500000Hz\n0,1\n0.002,0.99\n")

	f.Fuzz(func(t *testing.T, text string) {
		acq, err := decodeAcquisition(strings.NewReader(text), nil)
		if strings.Contains(text, `"`) {
			if err == nil {
				t.Fatal("accepted an input holding a quote")
			}
			return
		}
		if pastBound(text) {
			if err == nil {
				t.Fatal("accepted an input past the decoder's bounds")
			}
			return
		}
		ref, refErr := referenceDecode(strings.NewReader(text))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("scanner error %v, encoding/csv error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if len(acq.CarriersHz) != len(acq.Traces) {
			t.Fatal("accepted acquisition with mismatched carriers/traces")
		}
		n := len(acq.Traces[0].Samples)
		for _, tr := range acq.Traces {
			if len(tr.Samples) != n {
				t.Fatal("accepted ragged acquisition")
			}
			if !finite(tr.Rate) || tr.Rate <= 0 {
				t.Fatalf("accepted sample rate %v", tr.Rate)
			}
			for _, v := range tr.Samples {
				if !finite(v) {
					t.Fatalf("accepted sample %v", v)
				}
			}
		}
		if !sameBits(acq.CarriersHz, ref.CarriersHz) {
			t.Fatalf("carriers %v, encoding/csv %v", acq.CarriersHz, ref.CarriersHz)
		}
		for c := range acq.Traces {
			got, want := acq.Traces[c], ref.Traces[c]
			if math.Float64bits(got.Rate) != math.Float64bits(want.Rate) || !sameBits(got.Samples, want.Samples) {
				t.Fatalf("carrier %d differs from encoding/csv", c)
			}
		}
	})
}

// pastBound reports whether text, read as the scanner reads its lines, has a
// header longer than maxHeaderBytes or with more than maxCarriers channels,
// a row longer than maxRowBytes allows for those channels, or more than
// maxRows rows.
func pastBound(text string) bool {
	carriers, rows := -1, 0
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSuffix(line, "\r")
		switch {
		case line == "":
		case carriers < 0:
			carriers = strings.Count(line, ",")
			if len(line) > maxHeaderBytes || carriers > maxCarriers {
				return true
			}
		default:
			if rows++; len(line) > maxRowBytes(carriers) || rows > maxRows {
				return true
			}
		}
	}
	return false
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// referenceDecode is the encoding/csv row loop the scanner replaced, kept as
// the fuzz oracle. It checks the header and every row as decodeAcquisition
// does.
func referenceDecode(r io.Reader) (lockin.Acquisition, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return lockin.Acquisition{}, fmt.Errorf("missing header: %w", err)
	}
	if len(header) < 2 || header[0] != "time_s" {
		return lockin.Acquisition{}, fmt.Errorf("bad header %q", header)
	}
	carriers := make([]float64, 0, len(header)-1)
	for _, col := range header[1:] {
		hz, ok := channelHz([]byte(col))
		if !ok {
			return lockin.Acquisition{}, fmt.Errorf("bad channel column %q", col)
		}
		carriers = append(carriers, float64(hz))
	}
	samples := make([][]float64, len(carriers))
	var times []float64
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return lockin.Acquisition{}, err
		}
		if len(rec) != len(carriers)+1 {
			return lockin.Acquisition{}, fmt.Errorf("row has %d fields", len(rec))
		}
		t, err := strconv.ParseFloat(rec[0], 64)
		if err != nil || !finite(t) {
			return lockin.Acquisition{}, fmt.Errorf("bad time %q", rec[0])
		}
		if n := len(times); n > 0 && t <= times[n-1] {
			return lockin.Acquisition{}, fmt.Errorf("time %q does not follow %v", rec[0], times[n-1])
		}
		times = append(times, t)
		for c := range carriers {
			v, err := strconv.ParseFloat(rec[c+1], 64)
			if err != nil || !finite(v) {
				return lockin.Acquisition{}, fmt.Errorf("bad value %q", rec[c+1])
			}
			samples[c] = append(samples[c], v)
		}
	}
	if len(times) < 2 {
		return lockin.Acquisition{}, errors.New("need at least 2 samples")
	}
	rate := float64(len(times)-1) / (times[len(times)-1] - times[0])
	if !finite(rate) || rate <= 0 {
		return lockin.Acquisition{}, errors.New("no sample rate")
	}
	acq := lockin.Acquisition{CarriersHz: carriers, Traces: make([]sigproc.Trace, len(carriers))}
	for c := range carriers {
		acq.Traces[c] = sigproc.Trace{Rate: rate, Samples: samples[c]}
	}
	return acq, nil
}

// FuzzDecompressAcquisition sends arbitrary payloads through the decode the
// service runs, with one DecodeBuffer reused across inputs as the service's
// pool reuses it, and pins it to the serial decode it replaced: both accept
// and reject the same payloads with the same error and bit-identical
// carriers, rate and samples, and no goroutine outlives a decode. There are
// two exceptions to equal errors: a member whose size record is wrong, where
// the decoders may stop on different rows (see serialDecompress), and a
// deflate stream that compress/flate rejects, where the inflater gives its
// own error for the same stream.
func FuzzDecompressAcquisition(f *testing.F) {
	short := testAcquisitionSeeded(f, 7, 2)
	payload, err := CompressAcquisition(short)
	if err != nil {
		f.Fatal(err)
	}
	csvText := encodeCSV(f, short)
	f.Add(payload)
	f.Add(createdPayload(f, csvText))
	f.Add(rewrapMember(f, payload, func(h *zip.FileHeader, raw []byte) []byte {
		h.CompressedSize64 = uint64(len(raw) / 2)
		return raw[:len(raw)/2]
	}))
	f.Add(rewrapMember(f, payload, func(h *zip.FileHeader, raw []byte) []byte {
		h.CRC32 ^= 1
		return raw
	}))
	f.Add(createdPayload(f, breakRowAfter(csvText, len(csvText)*3/4)))
	f.Add([]byte("not a zip"))

	var buf, refBuf DecodeBuffer
	f.Fuzz(func(t *testing.T, payload []byte) {
		before := runtime.NumGoroutine()
		acq, err := DecompressAcquisitionBuffer(payload, &buf)
		waitGoroutines(t, before)
		ref, refErr := serialDecompress(payload, &refBuf)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decode error %v, serial decode error %v", err, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() && !sizeMismatch(err) && !sizeMismatch(refErr) &&
				!(inflateFailure(err) && flateFailure(refErr)) {
				t.Fatalf("decode error %q, serial decode error %q", err, refErr)
			}
			return
		}
		if !sameBits(acq.CarriersHz, ref.CarriersHz) || len(acq.Traces) != len(ref.Traces) {
			t.Fatalf("carriers %v, serial decode %v", acq.CarriersHz, ref.CarriersHz)
		}
		for c := range acq.Traces {
			got, want := acq.Traces[c], ref.Traces[c]
			if math.Float64bits(got.Rate) != math.Float64bits(want.Rate) || !sameBits(got.Samples, want.Samples) {
				t.Fatalf("carrier %d differs from the serial decode", c)
			}
		}
	})
}

// serialDecompress is the decode DecompressAcquisitionBuffer replaced,
// kept as the reference: the calling goroutine inflates the member through
// the line reader as it scans. Both see the same bytes and the same error
// after them, except where archive/zip finds the member longer or shorter
// than its size record: it then drops the bytes of the read that crossed
// the record, and the two read in different sizes.
func serialDecompress(data []byte, buf *DecodeBuffer) (lockin.Acquisition, error) {
	f, err := measurements(data)
	if err != nil {
		return lockin.Acquisition{}, err
	}
	rc, err := f.Open()
	if err != nil {
		return lockin.Acquisition{}, fmt.Errorf("csvio: opening member: %w", err)
	}
	defer rc.Close()
	return decodeAcquisition(rc, buf)
}

// flateFailure reports whether the serial decode's err came from
// compress/flate: a corrupt stream, or one cut short.
func flateFailure(err error) bool {
	return strings.Contains(err.Error(), "flate: corrupt input before offset") ||
		strings.HasSuffix(err.Error(), io.ErrUnexpectedEOF.Error())
}

// inflateFailure reports whether err came from the inflater's own reading
// of a deflate stream: a corrupt stream, or one cut short.
func inflateFailure(err error) bool {
	return strings.Contains(err.Error(), "csvio: corrupt deflate stream") ||
		strings.HasSuffix(err.Error(), io.ErrUnexpectedEOF.Error())
}

// sizeMismatch reports whether err is archive/zip's complaint about a
// member that disagrees with its size record.
func sizeMismatch(err error) bool {
	msg := err.Error()
	return strings.HasSuffix(msg, zip.ErrFormat.Error()) || strings.HasSuffix(msg, io.ErrUnexpectedEOF.Error())
}

// FuzzInflate sends arbitrary raw deflate streams through the inflater and
// through compress/flate, its oracle: both accept or reject alike, and both
// yield the same bytes, before an error too. One DecodeBuffer is reused
// across inputs, as the service reuses its buffers.
func FuzzInflate(f *testing.F) {
	csvText := encodeCSV(f, testAcquisitionSeeded(f, 7, 0.5))
	for _, level := range []int{1, 2, 5, 9, flate.HuffmanOnly, flate.NoCompression} {
		f.Add(deflateBytes(f, csvText, level))
	}
	// Over one packaging segment: two deflate runs joined at a sync flush.
	f.Add(rawDeflate(f, mustCompress(f, testAcquisitionSeeded(f, 7, 6.5))))
	level2 := deflateBytes(f, csvText, 2)
	f.Add(level2[:len(level2)*3/4])
	flipped := bytes.Clone(level2)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)

	var buf DecodeBuffer
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := inflateRaw(&buf, raw)
		want, refErr := io.ReadAll(flate.NewReader(bytes.NewReader(raw)))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("inflater error %v, compress/flate error %v", err, refErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("inflater yields %d B, compress/flate %d B; first difference at %d (errors %v, %v)",
				len(got), len(want), firstDiff(got, want), err, refErr)
		}
	})
}

// FuzzParseSample sends arbitrary fields through the sample parser and
// through strconv.ParseFloat, its oracle: the same float64 bits, and an
// error for the same fields.
func FuzzParseSample(f *testing.F) {
	acq := testAcquisitionSeeded(f, 7, 1)
	for i := 0; i < 20; i++ {
		f.Add(strconv.FormatFloat(acq.Traces[0].Samples[i], 'g', -1, 64))
		f.Add(strconv.FormatFloat(float64(i*37)/acq.Traces[0].Rate, 'g', -1, 64))
	}
	for _, s := range []string{
		"1e-05", "-0", "1234567890123456789", "12345678901234567890", "0.1234567890123456789",
		"9007199254740993", "4.9e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
		"1e309", "NaN", "+1", "1_0", "0x1p-2", ".5", "5.",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := parseFloat([]byte(s))
		want, refErr := strconv.ParseFloat(s, 64)
		if (err == nil) != (refErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseFloat(%q) = %v (%#x), %v; strconv %v (%#x), %v",
				s, got, math.Float64bits(got), err, want, math.Float64bits(want), refErr)
		}
	})
}

// inflateRaw inflates a bare deflate stream through buf's inflater and
// ring, as a decode would, and returns every byte it yields and the error
// after them.
func inflateRaw(buf *DecodeBuffer, raw []byte) ([]byte, error) {
	buf.z.openRaw(raw)
	buf.ring.start(&buf.z, (*inflater).inflate)
	defer buf.ring.stop()
	return io.ReadAll(&buf.ring)
}

// deflateBytes deflates p at level with compress/flate.
func deflateBytes(tb testing.TB, p []byte, level int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.Write(p); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// rawDeflate returns the raw bytes of a payload's measurements member.
func rawDeflate(tb testing.TB, payload []byte) []byte {
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
	return raw
}

func mustCompress(tb testing.TB, acq lockin.Acquisition) []byte {
	tb.Helper()
	payload, err := CompressAcquisition(acq)
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}
