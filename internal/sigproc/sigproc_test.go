package sigproc

import (
	"math"
	"testing"
	"testing/quick"

	"medsen/internal/drbg"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestPolyFitRecoversExactPolynomial(t *testing.T) {
	tests := []struct {
		name   string
		coeffs []float64
	}{
		{"constant", []float64{3.5}},
		{"linear", []float64{1, -2}},
		{"quadratic", []float64{0.5, 2, -0.25}},
		{"cubic", []float64{-1, 0.1, 0.01, 0.002}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			xs := make([]float64, 50)
			ys := make([]float64, 50)
			for i := range xs {
				xs[i] = float64(i) * 0.1
				ys[i] = PolyEval(tc.coeffs, xs[i])
			}
			got, err := PolyFit(xs, ys, len(tc.coeffs)-1)
			if err != nil {
				t.Fatalf("PolyFit: %v", err)
			}
			for i, want := range tc.coeffs {
				if !almostEqual(got[i], want, 1e-6) {
					t.Fatalf("coefficient %d = %v, want %v", i, got[i], want)
				}
			}
		})
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1, 2}, []float64{1}, 1); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, 2); err == nil {
		t.Fatal("expected too-few-points error")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Fatal("expected negative-degree error")
	}
	// Repeated x values make the quadratic system singular.
	if _, err := PolyFit([]float64{1, 1, 1}, []float64{1, 2, 3}, 2); err == nil {
		t.Fatal("expected singular-system error")
	}
}

func TestPolyFitLeastSquaresUnderNoise(t *testing.T) {
	rng := drbg.NewFromSeed(101)
	want := []float64{2, -1, 0.5}
	xs := make([]float64, 2000)
	ys := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i) * 0.01
		ys[i] = PolyEval(want, xs[i]) + 0.01*rng.NormFloat64()
	}
	got, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatalf("PolyFit: %v", err)
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 0.05) {
			t.Fatalf("coefficient %d = %v, want ~%v", i, got[i], want[i])
		}
	}
}

func TestQuickPolyFitRoundTrip(t *testing.T) {
	f := func(c0, c1, c2 int8) bool {
		coeffs := []float64{float64(c0), float64(c1) / 4, float64(c2) / 16}
		xs := make([]float64, 30)
		ys := make([]float64, 30)
		for i := range xs {
			xs[i] = float64(i) * 0.2
			ys[i] = PolyEval(coeffs, xs[i])
		}
		got, err := PolyFit(xs, ys, 2)
		if err != nil {
			return false
		}
		for i := range coeffs {
			if !almostEqual(got[i], coeffs[i], 1e-5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPolyEvalHorner(t *testing.T) {
	coeffs := []float64{1, 2, 3} // 1 + 2x + 3x²
	if got := PolyEval(coeffs, 2); got != 17 {
		t.Fatalf("PolyEval = %v, want 17", got)
	}
	if got := PolyEval(nil, 5); got != 0 {
		t.Fatalf("PolyEval(nil) = %v, want 0", got)
	}
}

// syntheticTrace builds a drifting baseline trace with dips of the given
// depth at the given sample indices.
func syntheticTrace(n int, rate float64, dipIdx []int, depth float64, drift func(i int) float64, noise *drbg.DRBG, noiseAmp float64) Trace {
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = drift(i)
		if noise != nil {
			samples[i] += noiseAmp * noise.NormFloat64()
		}
	}
	for _, idx := range dipIdx {
		// A dip spanning 5 samples with a triangular profile.
		for off := -2; off <= 2; off++ {
			j := idx + off
			if j < 0 || j >= n {
				continue
			}
			frac := 1 - math.Abs(float64(off))/3
			samples[j] -= depth * frac * drift(j)
		}
	}
	return Trace{Rate: rate, Samples: samples}
}

func TestDetrendFlattensQuadraticDrift(t *testing.T) {
	drift := func(i int) float64 {
		x := float64(i)
		return 2.0 + 0.0001*x + 0.0000001*x*x
	}
	tr := syntheticTrace(9000, 450, nil, 0, drift, nil, 0)
	flat, err := Detrend(tr, DefaultDetrendConfig())
	if err != nil {
		t.Fatalf("Detrend: %v", err)
	}
	for i, v := range flat.Samples {
		if !almostEqual(v, 1, 1e-3) {
			t.Fatalf("sample %d = %v after detrend, want ~1", i, v)
		}
	}
}

func TestDetrendPreservesPeaks(t *testing.T) {
	drift := func(i int) float64 { return 1.5 + 0.00005*float64(i) }
	dips := []int{1000, 2500, 4000, 6000, 7500}
	tr := syntheticTrace(9000, 450, dips, 0.01, drift, drbg.NewFromSeed(7), 0.0003)
	flat, err := Detrend(tr, DefaultDetrendConfig())
	if err != nil {
		t.Fatalf("Detrend: %v", err)
	}
	peaks := DetectPeaks(flat, DefaultPeakConfig())
	if len(peaks) != len(dips) {
		t.Fatalf("detected %d peaks, want %d", len(peaks), len(dips))
	}
	for i, p := range peaks {
		if int(math.Abs(float64(p.Index-dips[i]))) > 3 {
			t.Fatalf("peak %d at index %d, want near %d", i, p.Index, dips[i])
		}
		if !almostEqual(p.Amplitude, 0.01, 0.004) {
			t.Fatalf("peak %d amplitude %v, want ~0.01", i, p.Amplitude)
		}
	}
}

func TestDetrendShortTraceSmallerThanWindow(t *testing.T) {
	tr := syntheticTrace(100, 450, []int{50}, 0.02, func(int) float64 { return 1 }, nil, 0)
	flat, err := Detrend(tr, DefaultDetrendConfig())
	if err != nil {
		t.Fatalf("Detrend: %v", err)
	}
	if len(flat.Samples) != 100 {
		t.Fatalf("detrended length %d, want 100", len(flat.Samples))
	}
}

func TestDetrendValidation(t *testing.T) {
	tr := Trace{Rate: 450, Samples: make([]float64, 100)}
	cases := []DetrendConfig{
		{Degree: -1, Window: 50, Overlap: 5},
		{Degree: 2, Window: 2, Overlap: 0},
		{Degree: 2, Window: 50, Overlap: 50},
		{Degree: 2, Window: 50, Overlap: -1},
	}
	for i, cfg := range cases {
		if _, err := Detrend(tr, cfg); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	if _, err := Detrend(Trace{Rate: 450}, DefaultDetrendConfig()); err == nil {
		t.Fatal("expected error for empty trace")
	}
}

func TestDetectPeaksEmptyAndFlat(t *testing.T) {
	if got := DetectPeaks(Trace{}, DefaultPeakConfig()); len(got) != 0 {
		t.Fatalf("peaks on empty trace: %v", got)
	}
	flat := Trace{Rate: 450, Samples: make([]float64, 1000)}
	for i := range flat.Samples {
		flat.Samples[i] = 1
	}
	if got := DetectPeaks(flat, DefaultPeakConfig()); len(got) != 0 {
		t.Fatalf("peaks on flat trace: %v", got)
	}
}

func TestDetectPeaksMinWidthRejectsSpikes(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = 1
	}
	samples[50] = 0.9 // single-sample spike
	tr := Trace{Rate: 450, Samples: samples}
	got := DetectPeaks(tr, PeakConfig{Threshold: 0.01, MinWidth: 2})
	if len(got) != 0 {
		t.Fatalf("single-sample spike should be rejected, got %v", got)
	}
	got = DetectPeaks(tr, PeakConfig{Threshold: 0.01, MinWidth: 1})
	if len(got) != 1 {
		t.Fatalf("MinWidth=1 should accept the spike, got %v", got)
	}
}

func TestDetectPeaksMergesCloseRegions(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = 1
	}
	// Two dips separated by one recovered sample.
	for i := 50; i < 55; i++ {
		samples[i] = 0.99
	}
	for i := 56; i < 61; i++ {
		samples[i] = 0.985
	}
	tr := Trace{Rate: 450, Samples: samples}
	got := DetectPeaks(tr, PeakConfig{Threshold: 0.005, MinWidth: 2, MinSeparation: 3})
	if len(got) != 1 {
		t.Fatalf("expected merged single peak, got %d", len(got))
	}
	if !almostEqual(got[0].Amplitude, 0.015, 1e-12) {
		t.Fatalf("merged amplitude %v, want 0.015", got[0].Amplitude)
	}
	got = DetectPeaks(tr, PeakConfig{Threshold: 0.005, MinWidth: 2, MinSeparation: 0})
	if len(got) != 2 {
		t.Fatalf("expected two peaks without merging, got %d", len(got))
	}
}

func TestDetectPeaksTrailingRegion(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = 1
	}
	for i := 95; i < 100; i++ {
		samples[i] = 0.98
	}
	got := DetectPeaks(Trace{Rate: 450, Samples: samples}, DefaultPeakConfig())
	if len(got) != 1 {
		t.Fatalf("trailing peak not detected: %v", got)
	}
	if got[0].End != 100 {
		t.Fatalf("trailing peak end %d, want 100", got[0].End)
	}
}

func TestPeakTimeAndWidth(t *testing.T) {
	samples := make([]float64, 450)
	for i := range samples {
		samples[i] = 1
	}
	for i := 90; i < 99; i++ { // 9 samples = 20 ms at 450 Hz
		samples[i] = 0.99
	}
	samples[94] = 0.98
	got := DetectPeaks(Trace{Rate: 450, Samples: samples}, DefaultPeakConfig())
	if len(got) != 1 {
		t.Fatalf("expected one peak, got %d", len(got))
	}
	if !almostEqual(got[0].Time, 94.0/450, 1e-9) {
		t.Fatalf("peak time %v", got[0].Time)
	}
	if !almostEqual(got[0].Width, 9.0/450, 1e-9) {
		t.Fatalf("peak width %v, want 20ms", got[0].Width)
	}
}

func TestQuickDetectPeaksCountMatchesInjected(t *testing.T) {
	rng := drbg.NewFromSeed(55)
	f := func(nPeaks uint8) bool {
		count := int(nPeaks%8) + 1
		dips := make([]int, count)
		for i := range dips {
			dips[i] = 200 + i*300 // well separated
		}
		n := 200 + count*300 + 200
		tr := syntheticTrace(n, 450, dips, 0.012, func(int) float64 { return 1.2 }, rng, 0.0002)
		flat, err := Detrend(tr, DetrendConfig{Degree: 2, Window: 1000, Overlap: 100})
		if err != nil {
			return false
		}
		return len(DetectPeaks(flat, DefaultPeakConfig())) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if StdDev([]float64{5}) != 0 {
		t.Fatal("StdDev of singleton != 0")
	}
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Fatalf("MinMax = %v,%v", min, max)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty slice")
		}
	}()
	MinMax(nil)
}

func TestLowPassAttenuatesHighFrequency(t *testing.T) {
	rate := 450.0
	n := 4500
	lowFreq, highFreq := 2.0, 150.0
	samples := make([]float64, n)
	for i := range samples {
		tt := float64(i) / rate
		samples[i] = math.Sin(2*math.Pi*lowFreq*tt) + math.Sin(2*math.Pi*highFreq*tt)
	}
	out := Trace{Rate: rate, Samples: append([]float64(nil), samples...)}
	LowPassInPlace(out, 10)
	// Estimate residual high-frequency power via the difference from a
	// smoothed version.
	smooth := MovingAverage(out, 5)
	residual := 0.0
	for i := range out.Samples {
		d := out.Samples[i] - smooth.Samples[i]
		residual += d * d
	}
	original := 0.0
	origSmooth := MovingAverage(Trace{Rate: rate, Samples: samples}, 5)
	for i := range samples {
		d := samples[i] - origSmooth.Samples[i]
		original += d * d
	}
	if residual >= original/4 {
		t.Fatalf("low-pass did not attenuate: residual %v vs original %v", residual, original)
	}
}

func TestLowPassPassthroughInvalidParams(t *testing.T) {
	for _, tc := range []struct{ rate, cutoffHz float64 }{{450, 0}, {450, -1}, {0, 10}} {
		tr := Trace{Rate: tc.rate, Samples: []float64{1, 2, 3}}
		LowPassInPlace(tr, tc.cutoffHz)
		for i, v := range []float64{1, 2, 3} {
			if tr.Samples[i] != v {
				t.Fatalf("rate %v cutoff %v changed the samples: %v", tc.rate, tc.cutoffHz, tr.Samples)
			}
		}
	}
}

func TestMovingAverageConstsAndEdges(t *testing.T) {
	tr := Trace{Rate: 1, Samples: []float64{2, 2, 2, 2, 2}}
	out := MovingAverage(tr, 3)
	for _, v := range out.Samples {
		if v != 2 {
			t.Fatalf("moving average of constant changed value: %v", out.Samples)
		}
	}
	// Even window is promoted to odd.
	out = MovingAverage(Trace{Rate: 1, Samples: []float64{0, 3, 0}}, 2)
	if !almostEqual(out.Samples[1], 1, 1e-12) {
		t.Fatalf("centered average = %v, want 1", out.Samples[1])
	}
}

func TestSNRHigherForCleanSignal(t *testing.T) {
	dips := []int{500, 1500, 2500}
	clean := syntheticTrace(3500, 450, dips, 0.02, func(int) float64 { return 1 }, drbg.NewFromSeed(1), 0.0001)
	noisy := syntheticTrace(3500, 450, dips, 0.02, func(int) float64 { return 1 }, drbg.NewFromSeed(2), 0.002)
	cleanPeaks := DetectPeaks(clean, DefaultPeakConfig())
	noisyPeaks := DetectPeaks(noisy, DefaultPeakConfig())
	if len(cleanPeaks) == 0 {
		t.Fatal("no peaks in clean trace")
	}
	if SNR(clean, cleanPeaks) <= SNR(noisy, noisyPeaks) {
		t.Fatalf("SNR(clean)=%v should exceed SNR(noisy)=%v",
			SNR(clean, cleanPeaks), SNR(noisy, noisyPeaks))
	}
}

func TestTraceDurationAndClone(t *testing.T) {
	tr := Trace{Rate: 450, Samples: make([]float64, 900)}
	if !almostEqual(tr.Duration(), 2, 1e-12) {
		t.Fatalf("Duration = %v, want 2", tr.Duration())
	}
	if (Trace{}).Duration() != 0 {
		t.Fatal("zero trace duration should be 0")
	}
	c := tr.Clone()
	c.Samples[0] = 42
	if tr.Samples[0] == 42 {
		t.Fatal("Clone must deep-copy samples")
	}
}

func TestDetrendWorkersBitwiseIdenticalToSerial(t *testing.T) {
	dips := []int{400, 2100, 5200, 8800, 11000}
	drift := func(i int) float64 { return 1 + 0.1*float64(i)/12000 + 2e-9*float64(i)*float64(i) }
	tr := syntheticTrace(12000, 450, dips, 0.012, drift, drbg.NewFromSeed(23), 0.0004)
	cfgs := []DetrendConfig{
		DefaultDetrendConfig(),
		{Degree: 2, Window: 1000, Overlap: 100},
		{Degree: 3, Window: 700, Overlap: 0},
		{Degree: 1, Window: 13000, Overlap: 500}, // single window covering the trace
	}
	for _, cfg := range cfgs {
		serial, err := Detrend(tr, cfg)
		if err != nil {
			t.Fatalf("Detrend(%+v): %v", cfg, err)
		}
		for _, workers := range []int{0, 2, 3, 8} {
			par, err := DetrendWorkers(tr, cfg, workers)
			if err != nil {
				t.Fatalf("DetrendWorkers(%+v, %d): %v", cfg, workers, err)
			}
			if par.Rate != serial.Rate || len(par.Samples) != len(serial.Samples) {
				t.Fatalf("shape mismatch for workers=%d", workers)
			}
			for i := range serial.Samples {
				if par.Samples[i] != serial.Samples[i] {
					t.Fatalf("cfg %+v workers %d: sample %d differs: %v vs %v",
						cfg, workers, i, par.Samples[i], serial.Samples[i])
				}
			}
		}
	}
}

func TestDetrendWorkersValidation(t *testing.T) {
	if _, err := DetrendWorkers(Trace{}, DefaultDetrendConfig(), 4); err == nil {
		t.Fatal("expected error for empty trace")
	}
	if _, err := DetrendWorkers(Trace{Rate: 450, Samples: []float64{1, 1}}, DetrendConfig{Degree: -1, Window: 10}, 4); err == nil {
		t.Fatal("expected error for negative degree")
	}
}

// TestDetrendWorkersSteadyStateAllocs pins the steady-state allocation count
// of the detrend hot path. Once the pooled scratch is warm, a call allocates
// the output slice plus (for workers > 1) the per-call worker goroutines; the
// generous bound only leaves room for a full scratch rebuild if the GC
// happens to clear the pool mid-run. The pre-scratch implementation
// allocated ~350 times per call, so any per-window garbage fails this.
func TestDetrendWorkersSteadyStateAllocs(t *testing.T) {
	drift := func(i int) float64 { return 1.1 - 2e-6*float64(i) }
	tr := syntheticTrace(12000, 450, []int{2000, 6000, 10000}, 0.012, drift, drbg.NewFromSeed(31), 0.0003)
	cfg := DefaultDetrendConfig()
	for _, workers := range []int{1, 4} {
		if _, err := DetrendWorkers(tr, cfg, workers); err != nil { // warm the pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := DetrendWorkers(tr, cfg, workers); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 32 {
			t.Errorf("workers=%d: %v allocs per steady-state call, want <= 32", workers, allocs)
		}
	}
}

// TestDetectPeaksAllocsExact pins DetectPeaks to its two exact-size result
// allocations (the region list and the peak list); the counting pre-passes
// make the count deterministic, so the bound is tight.
func TestDetectPeaksAllocsExact(t *testing.T) {
	dips := []int{500, 1500, 2500, 3500}
	tr := syntheticTrace(4200, 450, dips, 0.015, func(int) float64 { return 1.2 }, drbg.NewFromSeed(9), 0.0002)
	flat, err := Detrend(tr, DetrendConfig{Degree: 2, Window: 1000, Overlap: 100})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPeakConfig()
	if got := len(DetectPeaks(flat, cfg)); got != len(dips) {
		t.Fatalf("fixture yields %d peaks, want %d", got, len(dips))
	}
	allocs := testing.AllocsPerRun(10, func() {
		DetectPeaks(flat, cfg)
	})
	if allocs > 2 {
		t.Errorf("%v allocs per DetectPeaks call, want <= 2", allocs)
	}
}

// Clone and MovingAverage are test tools: TestLowPassAttenuatesHighFrequency
// measures residual high-frequency power against a moving average, and no
// product path smooths or copies a trace this way.

// Clone returns a deep copy of the trace.
func (t Trace) Clone() Trace {
	out := Trace{Rate: t.Rate, Samples: make([]float64, len(t.Samples))}
	copy(out.Samples, t.Samples)
	return out
}

// MovingAverage smooths the trace with a centered window of the given odd
// length; an even length is rounded up.
func MovingAverage(t Trace, window int) Trace {
	if window <= 1 || len(t.Samples) == 0 {
		return t.Clone()
	}
	if window%2 == 0 {
		window++
	}
	half := window / 2
	n := len(t.Samples)
	out := make([]float64, n)
	// Prefix sums give O(n) smoothing.
	prefix := make([]float64, n+1)
	for i, v := range t.Samples {
		prefix[i+1] = prefix[i] + v
	}
	for i := 0; i < n; i++ {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half + 1
		if hi > n {
			hi = n
		}
		out[i] = (prefix[hi] - prefix[lo]) / float64(hi-lo)
	}
	return Trace{Rate: t.Rate, Samples: out}
}
