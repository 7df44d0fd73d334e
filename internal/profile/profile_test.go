package profile

import (
	"math"
	"testing"

	"medsen/internal/drbg"
	"medsen/internal/sigproc"
)

// driftingTrace builds a long noisy trace with nPeaks injected dips.
func driftingTrace(n, nPeaks int, seed uint64) sigproc.Trace {
	rng := drbg.NewFromSeed(seed)
	samples := make([]float64, n)
	for i := range samples {
		x := float64(i) / float64(n)
		samples[i] = 1.2 + 0.05*x + 0.02*x*x + 0.0002*rng.NormFloat64()
	}
	if nPeaks > 0 {
		spacing := n / (nPeaks + 1)
		for k := 1; k <= nPeaks; k++ {
			center := k * spacing
			for off := -3; off <= 3; off++ {
				i := center + off
				if i < 0 || i >= n {
					continue
				}
				frac := 1 - math.Abs(float64(off))/4
				samples[i] -= 0.012 * frac * samples[i]
			}
		}
	}
	return sigproc.Trace{Rate: 450, Samples: samples}
}

func TestValidate(t *testing.T) {
	if err := Computer().Validate(); err != nil {
		t.Fatalf("computer profile invalid: %v", err)
	}
	if err := SmartphoneNexus5().Validate(); err != nil {
		t.Fatalf("phone profile invalid: %v", err)
	}
	if err := (Profile{Parallelism: 0, WorkFactor: 1}).Validate(); err == nil {
		t.Error("expected error for zero parallelism")
	}
	if err := (Profile{Parallelism: 1, WorkFactor: 0}).Validate(); err == nil {
		t.Error("expected error for zero work factor")
	}
}

func TestRunPeakAnalysisFindsInjectedPeaks(t *testing.T) {
	const nPeaks = 40
	tr := driftingTrace(200000, nPeaks, 7)
	res, err := Computer().RunPeakAnalysis(tr, sigproc.DefaultDetrendConfig(), sigproc.DefaultPeakConfig())
	if err != nil {
		t.Fatalf("RunPeakAnalysis: %v", err)
	}
	if math.Abs(float64(len(res.Peaks)-nPeaks)) > 2 {
		t.Fatalf("found %d peaks, want ~%d", len(res.Peaks), nPeaks)
	}
	if res.Samples != 200000 {
		t.Fatalf("samples = %d", res.Samples)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time recorded")
	}
	for i := 1; i < len(res.Peaks); i++ {
		if res.Peaks[i].Index <= res.Peaks[i-1].Index {
			t.Fatal("peaks not sorted by index")
		}
	}
}

func TestProfilesAgreeOnPeaks(t *testing.T) {
	tr := driftingTrace(150000, 25, 9)
	dcfg := sigproc.DefaultDetrendConfig()
	pcfg := sigproc.DefaultPeakConfig()
	a, err := Computer().RunPeakAnalysis(tr, dcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SmartphoneNexus5().RunPeakAnalysis(tr, dcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Peaks) != len(b.Peaks) {
		t.Fatalf("profiles disagree: %d vs %d peaks", len(a.Peaks), len(b.Peaks))
	}
}

func TestSmartphoneSlowerThanComputer(t *testing.T) {
	// The per-core work multiplier must show up as a roughly
	// proportional wall-clock gap (Fig. 14's ~4×). Timing on loaded CI
	// machines is noisy, so only the direction and a loose magnitude are
	// asserted, over the best of three runs each. The runs alternate
	// between the profiles, so a host that slows down or speeds up part
	// way through weighs on both alike.
	tr := driftingTrace(500000, 50, 11)
	dcfg := sigproc.DefaultDetrendConfig()
	pcfg := sigproc.DefaultPeakConfig()
	profiles := []Profile{Computer(), SmartphoneNexus5()}
	best := []float64{math.Inf(1), math.Inf(1)}
	for i := 0; i < 3; i++ {
		for j, p := range profiles {
			res, err := p.RunPeakAnalysis(tr, dcfg, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			best[j] = min(best[j], res.Elapsed.Seconds())
		}
	}
	computer, phone := best[0], best[1]
	ratio := phone / computer
	if ratio < 1.5 {
		t.Fatalf("phone/computer ratio %.2f, want clearly > 1 (Fig. 14 shows ~4)", ratio)
	}
}

func TestLinearScalingInSampleCount(t *testing.T) {
	// Fig. 14: analysis time grows roughly linearly with sample count.
	dcfg := sigproc.DefaultDetrendConfig()
	pcfg := sigproc.DefaultPeakConfig()
	small := driftingTrace(240607, 20, 13)
	large := driftingTrace(962428, 80, 13)
	p := Computer()
	bestOf := func(tr sigproc.Trace) float64 {
		bestS := math.Inf(1)
		for i := 0; i < 3; i++ {
			res, err := p.RunPeakAnalysis(tr, dcfg, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			if s := res.Elapsed.Seconds(); s < bestS {
				bestS = s
			}
		}
		return bestS
	}
	tSmall := bestOf(small)
	tLarge := bestOf(large)
	ratio := tLarge / tSmall
	if ratio < 1.5 || ratio > 14 {
		t.Fatalf("4x samples scaled time by %.2f, want roughly linear", ratio)
	}
}

func TestEmptyTraceRejected(t *testing.T) {
	_, err := Computer().RunPeakAnalysis(sigproc.Trace{}, sigproc.DefaultDetrendConfig(), sigproc.DefaultPeakConfig())
	if err == nil {
		t.Fatal("expected error for empty trace")
	}
}
