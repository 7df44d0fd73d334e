// Package controller implements MedSen's trusted computing base (§II, §VI-B):
// the small embedded controller (the prototype's Raspberry Pi) that generates
// and keeps the encryption keys, drives the sensor configuration, hands the
// ciphertext to the untrusted relay, decrypts the returned analysis with
// "light computation (multiplications and divisions)" (§IV-A), and turns the
// recovered count into a diagnosis "through a simple threshold comparison"
// (§II).
//
// Key custody invariant: the cipher.Schedule never appears in any type that
// crosses the Analyzer port — the phone and cloud APIs have no parameter
// that could carry it.
package controller

import (
	"context"
	"errors"
	"fmt"
	"time"

	"medsen/internal/beads"
	"medsen/internal/cipher"
	"medsen/internal/cloud"
	"medsen/internal/diagnosis"
	"medsen/internal/drbg"
	"medsen/internal/lockin"
	"medsen/internal/microfluidic"
	"medsen/internal/sensor"
)

// Analyzer is the controller's only port to the untrusted world: ciphertext
// out, peak report in. phone.Relay implements it for the networked path and
// LocalAnalyzer for on-phone processing of small datasets (§VII-B: "For
// smaller samples, however, MedSen could be configured to perform the peak
// counting signal processing on the smartphone locally").
type Analyzer interface {
	Analyze(ctx context.Context, acq lockin.Acquisition) (cloud.Report, error)
}

// LocalAnalyzer runs the analysis pipeline in-process.
type LocalAnalyzer struct {
	// Config selects pipeline parameters (zero value → defaults).
	Config cloud.AnalysisConfig
}

var _ Analyzer = (*LocalAnalyzer)(nil)

// Analyze implements Analyzer.
func (l *LocalAnalyzer) Analyze(_ context.Context, acq lockin.Acquisition) (cloud.Report, error) {
	cfg := l.Config
	if cfg.ReferenceCarrierHz == 0 {
		cfg = cloud.DefaultAnalysisConfig()
	}
	return cloud.Analyze(acq, cfg)
}

// Controller is the trusted device head-end.
type Controller struct {
	// Sensor is the attached bio-sensor.
	Sensor *sensor.Sensor
	// Params configures key generation; must key exactly the sensor's
	// electrodes.
	Params cipher.Params
	// Panel is the diagnostic rule applied to recovered counts.
	Panel diagnosis.Panel
	// Alphabet is the cyto-coded password alphabet used for the
	// ciphertext integrity check.
	Alphabet beads.Alphabet
	// Notify receives user-facing status messages (the controller
	// forwards them to the phone UI as progress frames). May be nil.
	Notify func(string)

	rng *drbg.DRBG
}

// New assembles a controller around a sensor with entropy from rng.
func New(s *sensor.Sensor, rng *drbg.DRBG) (*Controller, error) {
	if s == nil {
		return nil, errors.New("controller: nil sensor")
	}
	if rng == nil {
		return nil, errors.New("controller: nil rng")
	}
	params := s.CipherParams()
	// Deployment gain range: the cipher must leave the ciphertext
	// *analyzable* (§IV: "the encrypted signal can still be processed to
	// detect voltage peaks"). Gains below ~0.9 push small scaled peaks
	// under the analyst's detection threshold and silently corrupt the
	// returned counts, so the deployed range trades some masking span
	// for guaranteed detectability.
	params.GainMin, params.GainMax = 0.9, 1.8
	// At least two active electrodes per epoch keeps the multiplication
	// factor strictly above the plaintext factor at all times.
	params.MinActive = 2
	return &Controller{
		Sensor:   s,
		Params:   params,
		Panel:    diagnosis.CD4Panel(),
		Alphabet: beads.DefaultAlphabet(),
		rng:      rng,
	}, nil
}

func (c *Controller) notify(format string, args ...any) {
	if c.Notify != nil {
		c.Notify(fmt.Sprintf(format, args...))
	}
}

// Timing breaks down one diagnostic run. Acquisition time is dominated by
// fluidics (minutes); the paper's headline 0.2 s end-to-end figure covers
// the post-acquisition path (analysis + decryption + decision), reported
// here as PostAcquisition.
type Timing struct {
	Acquire         time.Duration
	Analyze         time.Duration
	Decrypt         time.Duration
	Diagnose        time.Duration
	PostAcquisition time.Duration
}

// DiagnosticResult is a completed private diagnostic.
type DiagnosticResult struct {
	// Diagnosis is the clinical outcome.
	Diagnosis diagnosis.Result
	// CellCount is the decrypted number of target cells (beads excluded).
	CellCount int
	// BeadCount is the decrypted number of password beads recognized
	// among resolved particles.
	BeadCount int
	// CiphertextPeaks is what the cloud saw — the multiplied count.
	CiphertextPeaks int
	// IntegrityChecked reports whether a cyto-coded integrity check ran.
	IntegrityChecked bool
	// IntegrityOK is the §V check outcome: the bead statistics decoded
	// from the ciphertext match the identifier mixed into the sample.
	IntegrityOK bool
	// Timing is the per-stage cost breakdown.
	Timing Timing
}

// RunConfig describes one diagnostic run.
type RunConfig struct {
	// Sample is the fluid to acquire (typically blood mixed with the
	// patient's password beads).
	Sample microfluidic.Sample
	// DurationS is the acquisition window.
	DurationS float64
	// Identifier, when non-nil, enables the §V ciphertext integrity
	// check against the password mixed into the sample.
	Identifier beads.Identifier
	// SampleDilution is the pre-measurement dilution applied to the
	// blood before loading (standard practice for dense samples, which
	// would otherwise violate the channel's single-file assumption).
	// Recovered concentrations are multiplied back by this factor;
	// values < 1 are treated as 1.
	SampleDilution float64
	// Workers caps the parallelism of the acquisition render (per-carrier
	// synthesis). 0 uses GOMAXPROCS, 1 forces serial. Every worker count
	// produces bitwise-identical output (pinned by the golden tests).
	Workers int
}

// amplitudeCalibration compensates the acquisition chain's systematic
// apex attenuation: the 120 Hz output low-pass and 450 Hz sampling of
// ~15 ms pulses shave roughly 13% off the true drop depth. In the physical
// device this constant is measured once with reference beads.
const amplitudeCalibration = 0.87

// RunDiagnostic executes the full private diagnostic flow of Fig. 2:
// generate keys → acquire ciphertext → untrusted analysis → decrypt →
// threshold diagnosis → notify.
func (c *Controller) RunDiagnostic(ctx context.Context, cfg RunConfig, analyzer Analyzer) (DiagnosticResult, error) {
	if analyzer == nil {
		return DiagnosticResult{}, errors.New("controller: nil analyzer")
	}
	if cfg.DurationS <= 0 {
		return DiagnosticResult{}, fmt.Errorf("controller: non-positive duration %v", cfg.DurationS)
	}

	c.notify("generating key schedule")
	schedule, err := cipher.Generate(c.Params, cfg.DurationS, c.rng)
	if err != nil {
		return DiagnosticResult{}, err
	}
	// The key material dies with this diagnostic, whichever way it ends.
	defer schedule.Zero()

	c.notify("acquiring sample")
	t0 := time.Now()
	acqRes, err := c.Sensor.Acquire(sensor.AcquireConfig{
		Sample:    cfg.Sample,
		DurationS: cfg.DurationS,
		Schedule:  schedule,
		Workers:   cfg.Workers,
	}, c.rng)
	if err != nil {
		return DiagnosticResult{}, err
	}
	var out DiagnosticResult
	out.Timing.Acquire = time.Since(t0)

	c.notify("submitting encrypted measurements for analysis")
	t1 := time.Now()
	report, err := analyzer.Analyze(ctx, acqRes.Acquisition)
	if err != nil {
		return DiagnosticResult{}, fmt.Errorf("controller: analysis failed: %w", err)
	}
	out.Timing.Analyze = time.Since(t1)
	out.CiphertextPeaks = report.PeakCount

	c.notify("decrypting analysis outcome")
	t2 := time.Now()
	dec, err := schedule.Decrypt(report.SigprocPeaks(), c.Sensor.Array)
	if err != nil {
		return DiagnosticResult{}, err
	}
	out.Timing.Decrypt = time.Since(t2)

	t3 := time.Now()
	cellCount, beadCount := c.partitionCount(dec, report.ReferenceCarrierHz)
	out.CellCount = cellCount
	out.BeadCount = beadCount

	if cfg.Identifier != nil {
		out.IntegrityChecked = true
		out.IntegrityOK = c.checkIntegrity(cfg.Identifier, dec, report.ReferenceCarrierHz, cfg.DurationS)
	}

	sampledUl := c.Sensor.Channel.FlowRateUlMin / 60 * cfg.DurationS
	conc, err := diagnosis.ConcentrationFromCount(cellCount, sampledUl)
	if err != nil {
		return DiagnosticResult{}, err
	}
	if cfg.SampleDilution > 1 {
		conc *= cfg.SampleDilution
	}
	if cfg.Identifier != nil {
		// The standard mixing protocol replaced part of the loaded
		// volume with the bead pipette; correct the blood
		// concentration back to the undiluted sample.
		total := c.Alphabet.BloodVolumeUl + c.Alphabet.PipetteVolumeUl
		if c.Alphabet.BloodVolumeUl > 0 && total > 0 {
			conc *= total / c.Alphabet.BloodVolumeUl
		}
	}
	out.Diagnosis, err = c.Panel.Diagnose(conc)
	if err != nil {
		return DiagnosticResult{}, err
	}
	out.Timing.Diagnose = time.Since(t3)
	out.Timing.PostAcquisition = out.Timing.Analyze + out.Timing.Decrypt + out.Timing.Diagnose

	c.notify("diagnosis: %s (%s)", out.Diagnosis.Label, out.Diagnosis.Severity)
	return out, nil
}

// partitionCount splits the decrypted total into target cells and password
// beads. Resolved particles carry their true amplitude at the reference
// carrier (gain removed), which separates the populations; the resolved
// bead fraction is extrapolated to the unresolved remainder.
func (c *Controller) partitionCount(dec cipher.Decrypted, refCarrierHz float64) (cells, beadsN int) {
	if dec.Count == 0 {
		return 0, 0
	}
	if len(dec.Particles) == 0 {
		return dec.Count, 0
	}
	beadResolved := 0
	ref := refAmplitudes(refCarrierHz)
	for _, p := range dec.Particles {
		if typ := ref.nearest(p.Amplitude / amplitudeCalibration); typ != microfluidic.TypeBloodCell {
			beadResolved++
		}
	}
	beadFraction := float64(beadResolved) / float64(len(dec.Particles))
	beadsN = int(beadFraction*float64(dec.Count) + 0.5)
	if beadsN > dec.Count {
		beadsN = dec.Count
	}
	return dec.Count - beadsN, beadsN
}

// checkIntegrity recovers per-type bead concentrations from the resolved
// particles and compares them with the identifier that was mixed into the
// sample (§V: the results are trustworthy only "if the decoded synthetic
// bead types numbers matches the ones submitted initially").
func (c *Controller) checkIntegrity(id beads.Identifier, dec cipher.Decrypted, refCarrierHz float64, durationS float64) bool {
	if len(dec.Particles) == 0 {
		return false
	}
	counts := make(map[microfluidic.Type]int)
	ref := refAmplitudes(refCarrierHz)
	for _, p := range dec.Particles {
		counts[ref.nearest(p.Amplitude/amplitudeCalibration)]++
	}
	// Scale resolved counts to the full decrypted population.
	scale := float64(dec.Count) / float64(len(dec.Particles))
	sampledUl := c.Sensor.Channel.FlowRateUlMin / 60 * durationS
	if sampledUl <= 0 {
		return false
	}
	measured := make(map[microfluidic.Type]float64)
	for _, t := range c.Alphabet.Types {
		mixture := float64(counts[t]) * scale / sampledUl
		measured[t] = mixture * c.Alphabet.DilutionFactor()
	}
	return id.Equal(c.Alphabet.RecoverIdentifier(measured))
}

// ampTable holds the reference amplitude of each particle type at one
// carrier, indexed by type. Hoisting it out of the per-particle loops avoids
// recomputing the dielectric response (and copying the type list) for every
// resolved particle.
type ampTable [microfluidic.NumTypes + 1]float64

// refAmplitudes evaluates each type's expected amplitude at the given
// carrier.
func refAmplitudes(freqHz float64) ampTable {
	var tab ampTable
	for t := microfluidic.TypeBloodCell; t <= microfluidic.TypeBead780; t++ {
		tab[t] = microfluidic.PropertiesOf(t).AmplitudeAt(freqHz)
	}
	return tab
}

// nearest assigns a single reference-carrier amplitude to the closest
// particle population in log space (the controller-side, single-feature
// counterpart of the cloud's multi-carrier classifier). Types are visited in
// ascending order with a strict improvement rule, matching the previous
// AllTypes()-based loop exactly.
func (tab *ampTable) nearest(amp float64) microfluidic.Type {
	best := microfluidic.TypeBloodCell
	bestDist := -1.0
	for t := microfluidic.TypeBloodCell; t <= microfluidic.TypeBead780; t++ {
		d := logDist(amp, tab[t])
		if bestDist < 0 || d < bestDist {
			best, bestDist = t, d
		}
	}
	return best
}

func logDist(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 1e9
	}
	d := a / b
	if d < 1 {
		d = 1 / d
	}
	return d
}

// AuthPort is the controller's port for cyto-coded logins: the untrusted
// relay submits a plaintext-mode capture and returns the server's
// authentication outcome. phone.Relay implements it.
type AuthPort interface {
	SubmitAndAuthenticate(ctx context.Context, acq lockin.Acquisition) (cloud.AuthResult, error)
}

// RunAuthentication performs a §V login: mix the patient's password pipette
// into the blood sample, acquire with the bio-sensor-level encryption turned
// off (so the server can recognize the bead statistics), and submit through
// the port. No key material is involved anywhere on this path.
func (c *Controller) RunAuthentication(
	ctx context.Context,
	id beads.Identifier,
	blood microfluidic.Sample,
	durationS float64,
	port AuthPort,
) (cloud.AuthResult, error) {
	if port == nil {
		return cloud.AuthResult{}, errors.New("controller: nil auth port")
	}
	if durationS <= 0 {
		return cloud.AuthResult{}, fmt.Errorf("controller: non-positive duration %v", durationS)
	}
	mixed, err := c.Alphabet.MixedSample(id, blood)
	if err != nil {
		return cloud.AuthResult{}, err
	}
	c.notify("acquiring bead-coded sample (plaintext mode)")
	acqRes, err := c.Sensor.Acquire(sensor.AcquireConfig{
		Sample:    mixed,
		DurationS: durationS,
	}, c.rng)
	if err != nil {
		return cloud.AuthResult{}, err
	}
	c.notify("submitting for cyto-coded authentication")
	res, err := port.SubmitAndAuthenticate(ctx, acqRes.Acquisition)
	if err != nil {
		return cloud.AuthResult{}, fmt.Errorf("controller: authentication failed: %w", err)
	}
	return res, nil
}
