// Benchmarks regenerating the paper's evaluation. There is one benchmark per
// figure and per in-text experiment (see DESIGN.md §3 for the index); each
// delegates to internal/experiments in Quick mode so a full `go test
// -bench=.` pass completes in minutes. The medsen-bench binary runs the same
// experiments at full scale and prints the tables/series.
package medsen_test

import (
	"testing"

	"medsen/internal/benchharness"
	"medsen/internal/cipher"
	"medsen/internal/drbg"
	"medsen/internal/experiments"
	"medsen/internal/sigproc"
)

// benchOpts returns per-iteration options; the iteration index varies the
// seed so the benchmark does not measure one lucky draw.
func benchOpts(i int) experiments.Options {
	return experiments.Options{Seed: 2016 + uint64(i), Quick: true}
}

func BenchmarkFig07SinglePeak(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig07SingleCellDrop(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig08FivePeak(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig08FivePeakSignature(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		if r.PeakCount != 5 {
			b.Fatalf("peak count %d", r.PeakCount)
		}
	}
}

func BenchmarkFig11EncryptedSignatures(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11EncryptedSignatures(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12BeadCount780(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12BeadCounts780(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13BeadCount358(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13BeadCounts358(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14PeakAnalysisComputer(b *testing.B) {
	b.ReportAllocs()
	benchmarkFig14Profile(b, false)
}

func BenchmarkFig14PeakAnalysisSmartphone(b *testing.B) {
	b.ReportAllocs()
	benchmarkFig14Profile(b, true)
}

func benchmarkFig14Profile(b *testing.B, phone bool) {
	b.Helper()
	// Measure the pipeline itself (the quantity Fig. 14 plots) on the
	// smallest of the paper's sample sizes.
	rng := drbg.NewFromSeed(14)
	tr := experiments.SyntheticCaptureForBench(experiments.Fig14SampleSizes[0], rng)
	prof := experiments.Fig14Profile(phone)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := prof.RunPeakAnalysis(tr, sigproc.DefaultDetrendConfig(), sigproc.DefaultPeakConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Peaks) == 0 {
			b.Fatal("no peaks")
		}
	}
}

func BenchmarkFig15ImpedanceSpectra(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15ImpedanceSpectra(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16Clusters(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16Clusters(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKeyGeneration(b *testing.B) {
	b.ReportAllocs()
	// Eq. 2 context: generating the practical epoch schedule for a
	// 10-minute acquisition.
	params := cipher.DefaultParams()
	rng := drbg.NewFromSeed(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cipher.Generate(params, 600, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompression(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.CompressionExperiment(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		if r.Ratio <= 1 {
			b.Fatalf("ratio %v", r.Ratio)
		}
	}
}

func BenchmarkEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.EndToEndTiming(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAuthAccuracy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AuthAccuracy(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		if r.LoginAttempts == 0 {
			b.Fatal("no logins")
		}
	}
}

func BenchmarkAblationGainRandomization(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GainRandomizationAblation(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSpeedRandomization(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SpeedRandomizationAblation(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEpochLength(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.EpochLengthAblation(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDetrend(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DetrendAblation(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecrypt isolates the controller's decryption cost (the paper:
// "light computation" suitable for the resource-constrained controller).
func BenchmarkDecrypt(b *testing.B) {
	b.ReportAllocs()
	peaks, sched, arr, err := experiments.DecryptionWorkload(2016)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Decrypt(peaks, arr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig05DesignComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DesignComparison(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRepeatability(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Repeatability(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNoiseRobustness(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NoiseRobustness(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSchemeComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SchemeComparison(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarness runs every hot-path workload of internal/benchharness —
// the set medsen-bench measures and compares against BENCH_*.json — as one
// sub-benchmark each, so `go test -bench Harness/DiagnosticLocal` times the
// same body the baseline recorded.
func BenchmarkHarness(b *testing.B) {
	for _, bm := range benchharness.Benchmarks() {
		b.Run(bm.Name, bm.F)
	}
}
