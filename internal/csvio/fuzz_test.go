package csvio

import (
	"strings"
	"testing"
)

// FuzzDecodeAcquisition hardens the CSV decoder: arbitrary text must yield
// an error or a structurally consistent acquisition with a finite, positive
// sample rate and finite samples, never a panic.
func FuzzDecodeAcquisition(f *testing.F) {
	f.Add("time_s,ch_500000Hz\n0,1\n0.002,0.99\n")
	f.Add("time_s,ch_500000Hz,ch_2000000Hz\n0,1,1\n0.002,1,1\n0.004,0.9,0.95\n")
	f.Add("")
	f.Add("garbage")
	f.Add("time_s,chX\n0,1\n")
	f.Add("time_s,ch_500000Hz\n0,1\n0,1\n")
	f.Add("time_s,ch_500000Hz\n0,NaN\n0.002,+Inf\n")

	f.Fuzz(func(t *testing.T, csv string) {
		acq, err := DecodeAcquisition(strings.NewReader(csv))
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
	})
}
