// Package experiments regenerates every quantitative result in the paper's
// evaluation (§VII): Figures 7–16 plus the in-text numbers (Eq. 2 key
// sizing, the §VII-B compression ratio, the ~0.2 s end-to-end time, and the
// §VII-C authentication accuracy). Each experiment returns a structured
// result and can print the same rows/series the paper reports; the bench
// harness (bench_test.go) and the medsen-bench binary are thin wrappers.
//
// Absolute numbers depend on the simulation substrate and the host machine;
// EXPERIMENTS.md records how each measured shape compares with the paper.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"medsen/internal/cipher"
	"medsen/internal/cloud"
	"medsen/internal/drbg"
	"medsen/internal/electrode"
	"medsen/internal/lockin"
	"medsen/internal/microfluidic"
	"medsen/internal/sensor"
	"medsen/internal/sigproc"
)

// Options configures an experiment run.
type Options struct {
	// Seed drives every stochastic component; equal seeds reproduce
	// results bit-for-bit.
	Seed uint64
	// Quick shrinks workloads (shorter captures, fewer repetitions) for
	// use inside unit tests and testing.B loops.
	Quick bool
}

// rng derives an experiment-specific generator so experiments are
// independent of execution order.
func (o Options) rng(label string) *drbg.DRBG {
	return drbg.New([]byte(fmt.Sprintf("medsen-exp-%d", o.Seed)), label)
}

// quietSensor returns the default device tuned the way the experiments run
// it: calibrated noise, mild drift, transport losses on (they are part of
// Figs. 12/13) or off per experiment.
func quietSensor(lossOn bool) *sensor.Sensor {
	s := sensor.NewDefault()
	s.Lockin.NoiseSigma = 0.00012
	s.Lockin.Drift = lockin.Drift{LinearPerHour: -0.04, WaveAmplitude: 0.001, WavePeriodS: 240}
	if !lossOn {
		s.Loss = microfluidic.LossModel{Disabled: true}
	}
	return s
}

// detectOn runs the cloud pipeline on one carrier of an acquisition.
func detectOn(acq lockin.Acquisition, carrierHz float64) ([]sigproc.Peak, sigproc.Trace, error) {
	tr, err := acq.Channel(carrierHz)
	if err != nil {
		return nil, sigproc.Trace{}, err
	}
	flat, err := sigproc.Detrend(tr, sigproc.DefaultDetrendConfig())
	if err != nil {
		return nil, sigproc.Trace{}, err
	}
	return sigproc.DetectPeaks(flat, sigproc.DefaultPeakConfig()), flat, nil
}

// singleTransit builds one particle crossing at a fixed time and nominal
// velocity, for the waveform figures.
func singleTransit(t microfluidic.Type, entryS float64) microfluidic.Transit {
	return microfluidic.Transit{
		Type:        t,
		EntryS:      entryS,
		VelocityUmS: microfluidic.DefaultChannel().VelocityUmS(),
	}
}

// renderSingle renders a one-particle capture on the given sensor under a
// fixed electrode mask and unit gains.
func renderSingle(
	s *sensor.Sensor,
	tr microfluidic.Transit,
	active []bool,
	durationS float64,
	rng *drbg.DRBG,
) (lockin.Acquisition, error) {
	pulsesByCarrier := make([][]electrode.Pulse, len(s.CarriersHz))
	for ci, freq := range s.CarriersHz {
		pulsesByCarrier[ci] = s.Array.PulsesForTransit(tr, freq, active, nil, 1)
	}
	return lockin.Render(s.CarriersHz, pulsesByCarrier, durationS, s.Lockin, rng)
}

// maskFor builds an active mask for the given output indexes.
func maskFor(n int, on ...int) []bool {
	m := make([]bool, n)
	for _, i := range on {
		m[i] = true
	}
	return m
}

// newTable returns a tabwriter for aligned experiment output.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

// analysisConfig is the cloud pipeline configuration the experiments use.
func analysisConfig() cloud.AnalysisConfig {
	return cloud.DefaultAnalysisConfig()
}

// cloudAnalyze runs the server-side pipeline in-process.
func cloudAnalyze(acq lockin.Acquisition, cfg cloud.AnalysisConfig) (cloud.Report, error) {
	return cloud.Analyze(acq, cfg)
}

// defaultCipherParams returns cipher parameters matching the default sensor.
func defaultCipherParams(s *sensor.Sensor) cipher.Params {
	return s.CipherParams()
}
