package sigproc

import (
	"fmt"
	"math"
	"testing"

	"medsen/internal/drbg"
)

// noisyDipTrace builds a flat-baseline trace with Gaussian dips of the given
// depth at the given indices, plus white noise.
func noisyDipTrace(n int, rate float64, dips []int, depth, sigmaS, noise float64, seed uint64) Trace {
	rng := drbg.NewFromSeed(seed)
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = 1 + noise*rng.NormFloat64()
	}
	sigmaSamples := sigmaS * rate
	for _, c := range dips {
		for off := -int(4 * sigmaSamples); off <= int(4*sigmaSamples); off++ {
			i := c + off
			if i < 0 || i >= n {
				continue
			}
			d := float64(off) / sigmaSamples
			samples[i] -= depth * math.Exp(-0.5*d*d)
		}
	}
	return Trace{Rate: rate, Samples: samples}
}

func TestMatchedFilterPreservesCleanDip(t *testing.T) {
	cfg := DefaultMatchedFilterConfig()
	tr := noisyDipTrace(2000, 450, []int{1000}, 0.01, cfg.SigmaS, 0, 1)
	out, err := MatchedFilter(tr, cfg)
	if err != nil {
		t.Fatalf("MatchedFilter: %v", err)
	}
	minIdx := 0
	for i, v := range out.Samples {
		if v < out.Samples[minIdx] {
			minIdx = i
		}
	}
	if minIdx != 1000 {
		t.Fatalf("dip moved to %d", minIdx)
	}
	depth := 1 - out.Samples[minIdx]
	if math.Abs(depth-0.01) > 0.001 {
		t.Fatalf("template-shaped dip depth %v, want ~0.01", depth)
	}
}

func TestMatchedFilterImprovesDetectionUnderNoise(t *testing.T) {
	// Noise at half the dip depth: raw thresholding drowns in false
	// peaks or misses; the matched filter recovers the true dips. The
	// scenario uses slow-flow pulses (σ ≈ 5 samples) where the template
	// spans enough taps to average the noise down — at the nominal
	// ~1.6-sample pulses of the default device, 450 Hz sampling leaves
	// the matched filter almost nothing to integrate.
	cfg := MatchedFilterConfig{SigmaS: 0.012, HalfWidthSigmas: 3}
	dips := []int{500, 1500, 2500, 3500, 4500}
	tr := noisyDipTrace(5000, 450, dips, 0.006, cfg.SigmaS, 0.003, 7)
	pcfg := DefaultPeakConfig()
	pcfg.Threshold = 0.004

	rawPeaks := DetectPeaks(tr, pcfg)
	filtered, err := MatchedFilter(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mfPeaks := DetectPeaks(filtered, pcfg)

	rawF1 := detectionF1(rawPeaks, dips, 6)
	mfF1 := detectionF1(mfPeaks, dips, 6)
	if mfF1 < 0.9 {
		t.Fatalf("matched-filter F1 %.3f, want >= 0.9 (raw %.3f)", mfF1, rawF1)
	}
	if mfF1 <= rawF1 {
		t.Fatalf("matched filter should beat raw detection: %.3f vs %.3f", mfF1, rawF1)
	}
}

func detectionF1(peaks []Peak, truth []int, tol int) float64 {
	matched := 0
	used := make([]bool, len(peaks))
	for _, want := range truth {
		for i, p := range peaks {
			if used[i] {
				continue
			}
			d := p.Index - want
			if d < 0 {
				d = -d
			}
			if d <= tol {
				used[i] = true
				matched++
				break
			}
		}
	}
	if len(peaks) == 0 || len(truth) == 0 {
		return 0
	}
	precision := float64(matched) / float64(len(peaks))
	recall := float64(matched) / float64(len(truth))
	if precision+recall == 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}

func TestMatchedFilterValidation(t *testing.T) {
	cfg := DefaultMatchedFilterConfig()
	if _, err := MatchedFilter(Trace{}, cfg); err == nil {
		t.Error("expected error for empty trace")
	}
	bad := cfg
	bad.SigmaS = 0
	tr := noisyDipTrace(100, 450, nil, 0, cfg.SigmaS, 0, 1)
	if _, err := MatchedFilter(tr, bad); err == nil {
		t.Error("expected error for zero sigma")
	}
}

func TestMatchedFilterDefaultHalfWidth(t *testing.T) {
	cfg := MatchedFilterConfig{SigmaS: 0.0036} // HalfWidthSigmas zero → default
	tr := noisyDipTrace(500, 450, []int{250}, 0.01, cfg.SigmaS, 0, 3)
	if _, err := MatchedFilter(tr, cfg); err != nil {
		t.Fatalf("MatchedFilter: %v", err)
	}
}

// Matched filtering. §II notes that peak detection "typically requires a
// software-based implementation of signal processing for denoising and
// removal of baseline drift and peak detection"; the detrend + threshold
// pipeline covers drift. The candidate denoising stage is a matched filter
// correlating the detrended signal with the known transit pulse shape (a
// Gaussian dip of width set by the flow speed), which maximizes SNR for
// pulses in white noise. TestMatchedFilterImprovesDetectionUnderNoise is the
// EXPERIMENTS.md ablation; the deployed pipeline does not run the filter.

// MatchedFilterConfig parameterizes the template.
type MatchedFilterConfig struct {
	// SigmaS is the Gaussian template sigma in seconds (the expected
	// pulse σ at nominal flow).
	SigmaS float64
	// HalfWidthSigmas bounds the template support (default 3σ each side).
	HalfWidthSigmas float64
}

// DefaultMatchedFilterConfig matches the default device's ~15 ms pulses.
func DefaultMatchedFilterConfig() MatchedFilterConfig {
	return MatchedFilterConfig{SigmaS: 0.0036, HalfWidthSigmas: 3}
}

// MatchedFilter correlates the detrended trace's depth signal (1 − sample)
// with a Gaussian template and returns a trace in the same 1-is-baseline
// convention, so DetectPeaks applies unchanged. Peak positions are preserved
// (the template is symmetric); amplitudes are rescaled so a noiseless
// template-shaped dip keeps its depth. Apply it after Detrend: the pure
// (non-zero-mean) template maximizes SNR but passes any residual baseline
// offset through.
func MatchedFilter(t Trace, cfg MatchedFilterConfig) (Trace, error) {
	if t.Rate <= 0 || len(t.Samples) == 0 {
		return Trace{}, fmt.Errorf("sigproc: matched filter needs a sampled trace")
	}
	if cfg.SigmaS <= 0 {
		return Trace{}, fmt.Errorf("sigproc: non-positive template sigma %v", cfg.SigmaS)
	}
	if cfg.HalfWidthSigmas <= 0 {
		cfg.HalfWidthSigmas = 3
	}
	half := int(cfg.SigmaS * cfg.HalfWidthSigmas * t.Rate)
	if half < 1 {
		half = 1
	}
	kernel := make([]float64, 2*half+1)
	// Scale by the template energy so a noiseless template-shaped dip of
	// depth A yields output depth A.
	scale := 0.0
	for i := range kernel {
		d := float64(i-half) / (cfg.SigmaS * t.Rate)
		kernel[i] = math.Exp(-0.5 * d * d)
		scale += kernel[i] * kernel[i]
	}
	if scale <= 0 {
		return Trace{}, fmt.Errorf("sigproc: degenerate template")
	}

	n := len(t.Samples)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		acc := 0.0
		for k := -half; k <= half; k++ {
			j := i + k
			if j < 0 {
				j = 0
			}
			if j >= n {
				j = n - 1
			}
			acc += kernel[k+half] * (1 - t.Samples[j])
		}
		out[i] = 1 - acc/scale
	}
	return Trace{Rate: t.Rate, Samples: out}, nil
}
