package csvio

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
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
// reject the same inputs with bit-identical carriers, rate and samples. The
// one exception is a quote: encoding/csv unquotes a quoted number, the
// scanner rejects any input that holds a quote, since no phone writes one.
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
		acq, err := DecodeAcquisition(strings.NewReader(text))
		if strings.Contains(text, `"`) {
			if err == nil {
				t.Fatal("accepted an input holding a quote")
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
