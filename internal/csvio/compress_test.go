package csvio

import (
	"archive/zip"
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"medsen/internal/lockin"
	"medsen/internal/sigproc"
)

// raceEnabled is set in race_test.go when the race detector is on.
var raceEnabled bool

// referenceEncode is the encoding/csv encoder EncodeAcquisition replaced;
// the payload format is defined by its bytes.
func referenceEncode(acq lockin.Acquisition) ([]byte, error) {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	header := []string{"time_s"}
	for _, f := range acq.CarriersHz {
		header = append(header, fmt.Sprintf("ch_%dHz", int64(f)))
	}
	if err := cw.Write(header); err != nil {
		return nil, err
	}
	rate := acq.Traces[0].Rate
	row := make([]string, len(header))
	for i := range acq.Traces[0].Samples {
		row[0] = strconv.FormatFloat(float64(i)/rate, 'g', -1, 64)
		for c, tr := range acq.Traces {
			row[c+1] = strconv.FormatFloat(tr.Samples[i], 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return nil, err
		}
	}
	cw.Flush()
	return buf.Bytes(), cw.Error()
}

func TestEncodeMatchesEncodingCSV(t *testing.T) {
	odd := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
		1e308, -1e308, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		1, -1, 0.1, 1.0 / 3, 123456789.125, 1e21, 1e-7, 2.5e-5,
	}
	cases := []struct {
		name     string
		carriers []float64
		rate     float64
		samples  int
	}{
		{"edge values", []float64{500e3, 2000e3}, 450, len(odd)},
		{"odd carrier frequencies", []float64{0, -7, 1.5, 12345.678, 1e18, -9.9e17}, 3, 40},
		{"one carrier, odd rate", []float64{999999.9}, 7.0 / 3, 200},
		{"header only", []float64{500e3}, 450, 0},
		{"many segments", []float64{500e3, 1e6, 2e6}, 450, 40000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			acq := lockin.Acquisition{CarriersHz: tc.carriers}
			for c := range tc.carriers {
				samples := make([]float64, tc.samples)
				for i := range samples {
					samples[i] = odd[(i*len(tc.carriers)+c)%len(odd)] * float64(1+i%5)
				}
				acq.Traces = append(acq.Traces, sigproc.Trace{Rate: tc.rate, Samples: samples})
			}
			want, err := referenceEncode(acq)
			if err != nil {
				t.Fatal(err)
			}
			if got := encodeCSV(t, acq); !bytes.Equal(got, want) {
				t.Fatalf("EncodeAcquisition differs from encoding/csv at byte %d of %d",
					firstDiff(got, want), len(want))
			}
			payload, err := CompressAcquisition(acq)
			if err != nil {
				t.Fatal(err)
			}
			if got := inflate(t, payload); !bytes.Equal(got, want) {
				t.Fatalf("archived CSV differs from encoding/csv at byte %d of %d",
					firstDiff(got, want), len(want))
			}
		})
	}
}

func TestCompressIdenticalAcrossGOMAXPROCS(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seconds float64
		minSegs int
	}{
		{"smaller than a segment", 1, 1},
		{"many segments", 120, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			acq := testAcquisition(t, tc.seconds)
			csvLen := len(encodeCSV(t, acq))
			if segs := (csvLen + segmentSize - 1) / segmentSize; segs < tc.minSegs {
				t.Fatalf("capture spans %d segments, want at least %d", segs, tc.minSegs)
			}
			var want []byte
			for _, procs := range []int{1, 2, 8} {
				prev := runtime.GOMAXPROCS(procs)
				got, err := CompressAcquisition(acq)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("GOMAXPROCS=%d payload differs from GOMAXPROCS=1 at byte %d (%d vs %d bytes)",
						procs, firstDiff(got, want), len(got), len(want))
				}
			}
			assertSamplesIdentical(t, decompress(t, want), acq)
		})
	}
}

// TestLegacyArchiveDecodes pins that payloads packaged the old way — one
// zip.Writer.Create member streamed through archive/zip's deflate, as
// spooled by older phones — still decode to the same samples.
func TestLegacyArchiveDecodes(t *testing.T) {
	acq := testAcquisition(t, 20)
	csvText, err := referenceEncode(acq)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	f, err := zw.Create(MeasurementsFileName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(csvText); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	legacy := decompress(t, buf.Bytes())
	assertSamplesIdentical(t, legacy, acq)
	payload, err := CompressAcquisition(acq)
	if err != nil {
		t.Fatal(err)
	}
	assertSamplesIdentical(t, decompress(t, payload), legacy)
	if size, err := MeasurementsSize(buf.Bytes()); err != nil || size != int64(len(csvText)) {
		t.Fatalf("MeasurementsSize(legacy) = %d, %v; want %d", size, err, len(csvText))
	}
}

// TestCompressAllocatesLessThanItsCSV is the memory bound: packaging keeps a
// few segments of CSV in flight, never the whole file, so a capture costs
// its payload (kept per segment, then copied once into the archive) and
// nothing that grows with its CSV.
func TestCompressAllocatesLessThanItsCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("packages a 600 s capture")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random, so steady state is never reached")
	}
	acq := testAcquisition(t, 600)
	csvLen := len(encodeCSV(t, acq))
	// Fill the segment and compressor pools, as the previous capture would.
	if _, err := CompressAcquisition(acq); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	payload, err := CompressAcquisition(acq)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("CSV %d B, payload %d B, allocated %d B", csvLen, len(payload), allocated)
	if allocated >= uint64(csvLen) {
		t.Fatalf("CompressAcquisition allocated %d B for a %d B CSV", allocated, csvLen)
	}
}

// TestCompressConcurrentMatchesSerial packages four captures at once, as
// relays, offline queues and load-generator devices do, and compares each
// payload with the one packaged alone.
func TestCompressConcurrentMatchesSerial(t *testing.T) {
	acqs := make([]lockin.Acquisition, 4)
	want := make([][]byte, len(acqs))
	for i := range acqs {
		acqs[i] = testAcquisitionSeeded(t, 90+uint64(i), float64(5+10*i))
		var err error
		if want[i], err = CompressAcquisition(acqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := range acqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := CompressAcquisition(acqs[i])
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("capture %d: concurrent payload differs from serial at byte %d", i, firstDiff(got, want[i]))
			}
		}(i)
	}
	wg.Wait()
}

// inflate returns the CSV inside a payload.
func inflate(t *testing.T, payload []byte) []byte {
	t.Helper()
	f, err := measurements(payload)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(rc); err != nil {
		t.Fatalf("inflating: %v", err)
	}
	return buf.Bytes()
}

func decompress(t *testing.T, payload []byte) lockin.Acquisition {
	t.Helper()
	acq, err := DecompressAcquisition(payload)
	if err != nil {
		t.Fatal(err)
	}
	return acq
}

func assertSamplesIdentical(t *testing.T, got, want lockin.Acquisition) {
	t.Helper()
	if len(got.Traces) != len(want.Traces) {
		t.Fatalf("%d traces, want %d", len(got.Traces), len(want.Traces))
	}
	for c := range want.Traces {
		g, w := got.Traces[c].Samples, want.Traces[c].Samples
		if len(g) != len(w) {
			t.Fatalf("trace %d: %d samples, want %d", c, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("trace %d sample %d: %v, want %v", c, i, g[i], w[i])
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
