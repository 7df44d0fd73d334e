package experiments

import (
	"fmt"
	"io"
	"time"

	"medsen/internal/cipher"
	"medsen/internal/csvio"
	"medsen/internal/drbg"
	"medsen/internal/electrode"
	"medsen/internal/microfluidic"
	"medsen/internal/phone"
	"medsen/internal/profile"
	"medsen/internal/sensor"
	"medsen/internal/sigproc"
)

// Fig14Cell is one (profile, sample size) timing of Fig. 14.
type Fig14Cell struct {
	Profile    string
	Samples    int
	Elapsed    time.Duration
	PeaksFound int
}

// Fig14Result reproduces Fig. 14: peak-analysis runtime on the computer and
// smartphone profiles across the paper's three sample sizes.
type Fig14Result struct {
	Cells []Fig14Cell
	// PhoneSlowdown is the mean phone/computer time ratio (≈ 4.1–4.5 in
	// the paper).
	PhoneSlowdown float64
}

// Fig14SampleSizes are the paper's exact x-axis values.
var Fig14SampleSizes = []int{240607, 481214, 962428}

// Fig14PeakAnalysisPerformance times the pipeline under both profiles. The
// trace content mimics a long capture: drifting baseline, noise, and a peak
// every ~2 s of signal.
func Fig14PeakAnalysisPerformance(o Options) (Fig14Result, error) {
	sizes := Fig14SampleSizes
	if o.Quick {
		sizes = []int{60000, 120000}
	}
	rng := o.rng("fig14")
	profiles := []profile.Profile{profile.Computer(), profile.SmartphoneNexus5()}

	var res Fig14Result
	ratios := make(map[int][2]float64)
	for _, n := range sizes {
		tr := syntheticCapture(n, rng)
		for pi, p := range profiles {
			// Best of 3 suppresses scheduler noise.
			best := profile.Result{Elapsed: time.Duration(1<<62 - 1)}
			reps := 3
			if o.Quick {
				reps = 1
			}
			for r := 0; r < reps; r++ {
				out, err := p.RunPeakAnalysis(tr, sigproc.DefaultDetrendConfig(), sigproc.DefaultPeakConfig())
				if err != nil {
					return Fig14Result{}, err
				}
				if out.Elapsed < best.Elapsed {
					best = out
				}
			}
			res.Cells = append(res.Cells, Fig14Cell{
				Profile:    p.Name,
				Samples:    n,
				Elapsed:    best.Elapsed,
				PeaksFound: len(best.Peaks),
			})
			pair := ratios[n]
			pair[pi] = best.Elapsed.Seconds()
			ratios[n] = pair
		}
	}
	sum, cnt := 0.0, 0
	for _, pair := range ratios {
		if pair[0] > 0 {
			sum += pair[1] / pair[0]
			cnt++
		}
	}
	if cnt > 0 {
		res.PhoneSlowdown = sum / float64(cnt)
	}
	return res, nil
}

// syntheticCapture builds an n-sample trace with drift, noise and sparse
// peaks, matching the statistics of a long acquisition.
func syntheticCapture(n int, rng *drbg.DRBG) sigproc.Trace {
	samples := make([]float64, n)
	for i := range samples {
		x := float64(i) / float64(n)
		samples[i] = 1.1 + 0.08*x - 0.03*x*x + 0.0002*rng.NormFloat64()
	}
	spacing := 900 // one particle every 2 s at 450 Hz
	for c := spacing; c < n-4; c += spacing {
		depth := 0.004 + 0.004*rng.Float64()
		for off := -3; off <= 3; off++ {
			frac := 1 - absF(float64(off))/4
			samples[c+off] -= depth * frac * samples[c+off]
		}
	}
	return sigproc.Trace{Rate: 450, Samples: samples}
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// SyntheticCaptureForBench exposes the Fig. 14 workload generator to the
// benchmark harness.
func SyntheticCaptureForBench(n int, rng *drbg.DRBG) sigproc.Trace {
	return syntheticCapture(n, rng)
}

// DecryptionWorkload builds a realistic decryption input — the analyst's
// peak report for an encrypted capture — for isolating the controller's
// decryption cost.
func DecryptionWorkload(seed uint64) ([]sigproc.Peak, *cipher.Schedule, electrode.Array, error) {
	o := Options{Seed: seed, Quick: true}
	s := quietSensor(false)
	rng := o.rng("decrypt-workload")
	p := defaultCipherParams(s)
	p.GainMin, p.GainMax = 0.9, 1.8
	p.MinActive = 2
	const durationS = 90
	sched, err := cipher.Generate(p, durationS, rng)
	if err != nil {
		return nil, nil, electrode.Array{}, err
	}
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 150,
	})
	acqRes, err := s.Acquire(sensor.AcquireConfig{
		Sample: sample, DurationS: durationS, Schedule: sched,
	}, rng)
	if err != nil {
		return nil, nil, electrode.Array{}, err
	}
	peaks, _, err := detectOn(acqRes.Acquisition, analysisConfig().ReferenceCarrierHz)
	if err != nil {
		return nil, nil, electrode.Array{}, err
	}
	return peaks, sched, s.Array, nil
}

// PrintFig14 renders the timing table.
func PrintFig14(w io.Writer, r Fig14Result) {
	fmt.Fprintf(w, "Fig. 14 — peak-analysis time by device profile (phone slowdown ×%.2f)\n", r.PhoneSlowdown)
	tw := newTable(w)
	fmt.Fprintln(tw, "profile\tsamples\ttime_s\tpeaks")
	for _, c := range r.Cells {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%d\n", c.Profile, c.Samples, c.Elapsed.Seconds(), c.PeaksFound)
	}
	tw.Flush()
}

// KeySizeResult reproduces the Eq. 2 sizing discussion of §VI-B.
type KeySizeResult struct {
	// IdealBits is the per-cell one-time-pad key length for the paper's
	// example (20 K cells, 16 electrodes, 4-bit gains, 4-bit speeds).
	IdealBits int
	// IdealMB is the same in megabytes (the paper reports 0.12 MB).
	IdealMB float64
	// EpochBits is the practical epoch-keyed schedule size for a 3-hour
	// acquisition at 1 s epochs.
	EpochBits int
}

// KeySizeAccounting computes both key-size figures.
func KeySizeAccounting(o Options) (KeySizeResult, error) {
	ideal := cipher.IdealKeyLengthBits(20000, 16, 4, 4)
	p := cipher.DefaultParams()
	sched, err := cipher.Generate(p, 3*3600, drbg.NewFromSeed(o.Seed))
	if err != nil {
		return KeySizeResult{}, err
	}
	return KeySizeResult{
		IdealBits: ideal,
		IdealMB:   float64(ideal) / 8 / 1e6,
		EpochBits: sched.ScheduleBits(),
	}, nil
}

// PrintKeySize renders the key sizing.
func PrintKeySize(w io.Writer, r KeySizeResult) {
	fmt.Fprintf(w, "Eq. 2 — ideal per-cell key: %d bits (%.3f MB; paper: ~1 Mbit, 0.12 MB)\n",
		r.IdealBits, r.IdealMB)
	fmt.Fprintf(w, "practical epoch schedule (3 h, 1 s epochs): %d bits (%.3f MB)\n",
		r.EpochBits, float64(r.EpochBits)/8/1e6)
}

// CompressionResult reproduces the §VII-B data-volume numbers.
type CompressionResult struct {
	// CaptureS is the simulated capture length.
	CaptureS float64
	// RawBytes and ZipBytes are the CSV and compressed sizes.
	RawBytes int64
	ZipBytes int64
	// Ratio is raw/zip (the paper reports 600 MB → 240 MB, ratio 2.5).
	Ratio float64
	// ProjectedRawGB3h extrapolates the raw volume to the paper's
	// 3-hour run.
	ProjectedRawGB3h float64
}

// CompressionExperiment generates a capture and measures the phone's
// compression stage.
func CompressionExperiment(o Options) (CompressionResult, error) {
	captureS := 600.0
	if o.Quick {
		captureS = 60
	}
	s := quietSensor(true)
	rng := o.rng("compression")
	sample := microfluidic.NewSample(100, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 400,
	})
	acqRes, err := s.Acquire(sensor.AcquireConfig{Sample: sample, DurationS: captureS}, rng)
	if err != nil {
		return CompressionResult{}, err
	}
	zipped, err := csvio.CompressAcquisition(acqRes.Acquisition)
	if err != nil {
		return CompressionResult{}, err
	}
	raw, err := csvio.MeasurementsSize(zipped)
	if err != nil {
		return CompressionResult{}, err
	}
	res := CompressionResult{
		CaptureS: captureS,
		RawBytes: raw,
		ZipBytes: int64(len(zipped)),
	}
	if res.ZipBytes > 0 {
		res.Ratio = float64(res.RawBytes) / float64(res.ZipBytes)
	}
	res.ProjectedRawGB3h = float64(raw) / captureS * 3 * 3600 / 1e9
	return res, nil
}

// PrintCompression renders the data-volume numbers.
func PrintCompression(w io.Writer, r CompressionResult) {
	fmt.Fprintf(w, "§VII-B — %.0f s capture: CSV %.1f MB → zip %.1f MB (ratio %.2f; paper 600→240 MB = 2.5)\n",
		r.CaptureS, float64(r.RawBytes)/1e6, float64(r.ZipBytes)/1e6, r.Ratio)
	fmt.Fprintf(w, "projected raw volume for a 3 h run: %.2f GB (paper: ~0.6 GB)\n", r.ProjectedRawGB3h)
}

// EndToEndResult reproduces the headline ~0.2 s end-to-end figure: the
// post-acquisition path (cloud analysis + decryption + diagnosis) for a
// typical diagnostic capture.
type EndToEndResult struct {
	// CaptureS is the acquisition window of the measured run.
	CaptureS float64
	// Analyze, Decrypt, Diagnose and Total are wall-clock stage times.
	Analyze  time.Duration
	Decrypt  time.Duration
	Diagnose time.Duration
	Total    time.Duration
	// TransferSim is the modeled 4G upload time for the compressed
	// payload (excluded from Total, as in the paper's figure).
	TransferSim time.Duration
	// RecoveredCount is the decrypted particle count (sanity).
	RecoveredCount int
}

// EndToEndTiming measures the post-acquisition pipeline.
func EndToEndTiming(o Options) (EndToEndResult, error) {
	captureS := 60.0
	if o.Quick {
		captureS = 20
	}
	s := quietSensor(false)
	rng := o.rng("e2e")
	params := defaultCipherParams(s)
	params.GainMin, params.GainMax = 0.9, 1.8
	params.MinActive = 2
	sched, err := cipher.Generate(params, captureS, rng)
	if err != nil {
		return EndToEndResult{}, err
	}
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 200,
	})
	acqRes, err := s.Acquire(sensor.AcquireConfig{
		Sample: sample, DurationS: captureS, Schedule: sched,
	}, rng)
	if err != nil {
		return EndToEndResult{}, err
	}

	res := EndToEndResult{CaptureS: captureS}

	t0 := time.Now()
	report, err := cloudAnalyze(acqRes.Acquisition, analysisConfig())
	if err != nil {
		return EndToEndResult{}, err
	}
	res.Analyze = time.Since(t0)

	t1 := time.Now()
	dec, err := sched.Decrypt(report.SigprocPeaks(), s.Array)
	if err != nil {
		return EndToEndResult{}, err
	}
	res.Decrypt = time.Since(t1)
	res.RecoveredCount = dec.Count

	t2 := time.Now()
	sampledUl := s.Channel.FlowRateUlMin / 60 * captureS
	_ = float64(dec.Count) / sampledUl // concentration → threshold compare
	res.Diagnose = time.Since(t2)

	res.Total = res.Analyze + res.Decrypt + res.Diagnose

	zipped, err := csvio.CompressAcquisition(acqRes.Acquisition)
	if err != nil {
		return EndToEndResult{}, err
	}
	res.TransferSim = phone.Default4G().TransferTime(len(zipped))
	return res, nil
}

// PrintEndToEnd renders the timing breakdown.
func PrintEndToEnd(w io.Writer, r EndToEndResult) {
	fmt.Fprintf(w, "End-to-end (post-acquisition) for a %.0f s capture: %.3f s total (paper: ~0.2 s)\n",
		r.CaptureS, r.Total.Seconds())
	tw := newTable(w)
	fmt.Fprintln(tw, "stage\ttime_s")
	fmt.Fprintf(tw, "cloud analysis\t%.4f\n", r.Analyze.Seconds())
	fmt.Fprintf(tw, "decryption\t%.6f\n", r.Decrypt.Seconds())
	fmt.Fprintf(tw, "diagnosis\t%.6f\n", r.Diagnose.Seconds())
	fmt.Fprintf(tw, "4G upload (modeled, excluded)\t%.3f\n", r.TransferSim.Seconds())
	tw.Flush()
	fmt.Fprintf(w, "recovered count: %d\n", r.RecoveredCount)
}
