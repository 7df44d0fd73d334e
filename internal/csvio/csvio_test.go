package csvio

import (
	"archive/zip"
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"medsen/internal/drbg"
	"medsen/internal/lockin"
	"medsen/internal/sigproc"
)

func testAcquisition(t testing.TB, seconds float64) lockin.Acquisition {
	t.Helper()
	return testAcquisitionSeeded(t, 61, seconds)
}

// testAcquisitionSeeded is a two-carrier 450 Hz capture of noisy unit
// samples whose bytes vary with the seed.
func testAcquisitionSeeded(t testing.TB, seed uint64, seconds float64) lockin.Acquisition {
	t.Helper()
	rng := drbg.NewFromSeed(seed)
	carriers := []float64{500e3, 2000e3}
	traces := make([]sigproc.Trace, len(carriers))
	n := int(seconds * 450)
	for c := range carriers {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = 1 + 0.001*rng.NormFloat64()
		}
		traces[c] = sigproc.Trace{Rate: 450, Samples: samples}
	}
	return lockin.Acquisition{CarriersHz: carriers, Traces: traces}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	acq := testAcquisition(t, 2)
	var buf bytes.Buffer
	if err := EncodeAcquisition(&buf, acq); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := decodeAcquisition(&buf, nil)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got.CarriersHz) != 2 || got.CarriersHz[0] != 500e3 || got.CarriersHz[1] != 2000e3 {
		t.Fatalf("carriers = %v", got.CarriersHz)
	}
	if math.Abs(got.Traces[0].Rate-450) > 0.01 {
		t.Fatalf("recovered rate %v, want 450", got.Traces[0].Rate)
	}
	for c := range acq.Traces {
		if len(got.Traces[c].Samples) != len(acq.Traces[c].Samples) {
			t.Fatalf("trace %d length mismatch", c)
		}
		for i := range acq.Traces[c].Samples {
			if got.Traces[c].Samples[i] != acq.Traces[c].Samples[i] {
				t.Fatalf("trace %d sample %d: %v != %v", c, i,
					got.Traces[c].Samples[i], acq.Traces[c].Samples[i])
			}
		}
	}
}

func TestEncodeValidations(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeAcquisition(&buf, lockin.Acquisition{}); err == nil {
		t.Error("expected error for empty acquisition")
	}
	acq := testAcquisition(t, 1)
	acq.Traces[1].Samples = acq.Traces[1].Samples[:10]
	if err := EncodeAcquisition(&buf, acq); err == nil {
		t.Error("expected error for ragged traces")
	}
	acq = testAcquisition(t, 1)
	acq.Traces[1].Rate = 100
	if err := EncodeAcquisition(&buf, acq); err == nil {
		t.Error("expected error for mismatched rates")
	}
	acq = testAcquisition(t, 1)
	acq.CarriersHz = acq.CarriersHz[:1]
	if err := EncodeAcquisition(&buf, acq); err == nil {
		t.Error("expected error for fewer carriers than traces")
	}
	if _, err := CompressAcquisition(acq); err == nil {
		t.Error("expected CompressAcquisition to reject fewer carriers than traces")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		csv  string
	}{
		{"empty", ""},
		{"bad header", "foo,bar\n1,2\n"},
		{"bad channel column", "time_s,chX\n0,1\n"},
		{"one sample only", "time_s,ch_500000Hz\n0,1\n"},
		{"bad time", "time_s,ch_500000Hz\nx,1\n0.1,1\n"},
		{"bad value", "time_s,ch_500000Hz\n0,x\n0.1,1\n"},
		{"ragged row", "time_s,ch_500000Hz\n0,1,9\n"},
		{"repeated time", "time_s,ch_500000Hz\n0,1\n0,1\n"},
		{"decreasing time", "time_s,ch_500000Hz\n0.2,1\n0.1,1\n"},
		{"NaN time", "time_s,ch_500000Hz\n0,1\nNaN,1\n"},
		{"infinite time", "time_s,ch_500000Hz\n0,1\n+Inf,1\n"},
		{"NaN value", "time_s,ch_500000Hz\n0,1\n0.1,NaN\n"},
		{"infinite value", "time_s,ch_500000Hz\n0,-Inf\n0.1,1\n"},
		{"time span overflows", "time_s,ch_500000Hz\n-1e308,1\n1e308,1\n"},
		{"time span too short for a rate", "time_s,ch_500000Hz\n0,1\n5e-324,1\n"},
		{"channel column with a suffix", "time_s,ch_500000Hzjunk\n0,1\n0.1,1\n"},
		{"channel column with a sign", "time_s,ch_+500000Hz\n0,1\n0.1,1\n"},
		{"channel column with a trailing space", "time_s,ch_500000Hz \n0,1\n0.1,1\n"},
		{"quoted number", "time_s,ch_500000Hz\n0,\"1\"\n0.1,1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeAcquisition(strings.NewReader(tc.csv), nil)
			if err == nil {
				t.Fatalf("expected error for %q", tc.csv)
			}
			if tc.name != "empty" && !errors.Is(err, ErrBadCSV) {
				t.Fatalf("error %v should wrap ErrBadCSV", err)
			}
		})
	}
}

// TestDecodeAllocsIndependentOfRows pins the decoder's allocation contract:
// a warmed buffer scans a 13,500-row capture with as many allocations as a
// 900-row one, so no row allocates; and decoding a payload, its inflating
// goroutine and chunk ring included, allocates as much for 30 s as for 2 s.
// The inflater keeps its tables in the buffer, so that holds for stored
// members, the phone's CreateRaw members and older phones' Create members,
// which end in a data descriptor, alike; and a deflated payload costs no
// more than the 2 s one did while compress/flate inflated it.
func TestDecodeAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items, so allocation counts vary")
	}
	shortAcq, longAcq := testAcquisition(t, 2), testAcquisition(t, 30)
	short, long := encodeCSV(t, shortAcq), encodeCSV(t, longAcq)
	var buf DecodeBuffer
	decode := func(csv []byte) func() {
		return func() {
			if _, err := decodeAcquisition(bytes.NewReader(csv), &buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	decode(long)() // warm the buffer to the longer capture
	shortAllocs := testing.AllocsPerRun(10, decode(short))
	longAllocs := testing.AllocsPerRun(10, decode(long))
	t.Logf("900 rows: %v allocs, 13,500 rows: %v allocs", shortAllocs, longAllocs)
	if shortAllocs != longAllocs {
		t.Fatalf("900 rows allocate %v, 13,500 rows %v: decoding allocates per row", shortAllocs, longAllocs)
	}

	allocs := func(payload []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := DecompressAcquisitionBuffer(payload, &buf); err != nil {
				t.Fatal(err)
			}
		})
	}
	compressed := func(acq lockin.Acquisition) []byte {
		payload, err := CompressAcquisition(acq)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	// The 2 s payload's count while compress/flate inflated it.
	const flateAllocs = 28
	for _, tc := range []struct {
		name        string
		short, long []byte
		limit       float64
	}{
		{"stored", storedPayload(t, short), storedPayload(t, long), math.Inf(1)},
		{"CreateRaw", compressed(shortAcq), compressed(longAcq), flateAllocs},
		{"Create", createdPayload(t, short), createdPayload(t, long), flateAllocs},
	} {
		shortAllocs, longAllocs = allocs(tc.short), allocs(tc.long)
		t.Logf("%s members: 2 s %v allocs, 30 s %v allocs", tc.name, shortAllocs, longAllocs)
		if shortAllocs != longAllocs || longAllocs > tc.limit {
			t.Fatalf("%s 2 s payload decodes with %v allocs, 30 s with %v (limit %v)", tc.name, shortAllocs, longAllocs, tc.limit)
		}
	}
}

func TestCompressRoundTrip(t *testing.T) {
	acq := testAcquisition(t, 3)
	data, err := CompressAcquisition(acq)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	got, err := DecompressAcquisition(data)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if len(got.Traces) != len(acq.Traces) {
		t.Fatalf("trace count %d", len(got.Traces))
	}
	for i := range acq.Traces[0].Samples {
		if got.Traces[0].Samples[i] != acq.Traces[0].Samples[i] {
			t.Fatal("samples corrupted through zip round trip")
		}
	}
}

func TestCompressionShrinksPayload(t *testing.T) {
	// §VII-B reports ~2.5× shrink (600 MB → 240 MB) on real captures.
	acq := testAcquisition(t, 10)
	raw := encodeCSV(t, acq)
	compressed, err := CompressAcquisition(acq)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	ratio := float64(len(raw)) / float64(len(compressed))
	if ratio < 1.5 {
		t.Fatalf("compression ratio %.2f, want > 1.5 (raw %d, zip %d)",
			ratio, len(raw), len(compressed))
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	if _, err := DecompressAcquisition([]byte("not a zip")); err == nil {
		t.Fatal("expected error for non-zip data")
	}
}

func TestDecompressRejectsMissingMember(t *testing.T) {
	payload := archiveMember(t, &zip.FileHeader{Name: "other.csv", Method: zip.Deflate}, []byte("hello"))
	if _, err := DecompressAcquisition(payload); err == nil {
		t.Fatal("expected error for archive without measurements.csv")
	}
}

func TestMeasurementsSizeMatchesEncoding(t *testing.T) {
	acq := testAcquisition(t, 2)
	payload, err := CompressAcquisition(acq)
	if err != nil {
		t.Fatal(err)
	}
	size, err := MeasurementsSize(payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(encodeCSV(t, acq)); size != int64(want) {
		t.Fatalf("MeasurementsSize %d != encoded length %d", size, want)
	}
	if _, err := MeasurementsSize([]byte("not a zip")); err == nil {
		t.Fatal("expected error for non-zip data")
	}
}

// encodeCSV returns EncodeAcquisition's output.
func encodeCSV(t testing.TB, acq lockin.Acquisition) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeAcquisition(&buf, acq); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
