// Package medsen is a full-system reproduction of "Secure Point-of-Care
// Medical Diagnostics via Trusted Sensing and Cyto-Coded Passwords"
// (DSN 2016): a smartphone-dongle impedance cytometer whose sensor hardware
// encrypts its analog measurements by configuration — randomized electrode
// selection, per-electrode gains and flow speed — so an untrusted phone and
// cloud can run peak-detection analytics without learning the patient's cell
// counts, and whose patients authenticate by mixing a secret ratio of
// synthetic micro-beads (a "cyto-coded password") into their blood sample.
//
// The physical substrate (microfluidics, electrodes, lock-in amplifier) is
// simulated faithfully enough that every algorithm, security property and
// experiment of the paper runs end-to-end; see DESIGN.md for the
// hardware→simulation substitution map.
//
// # Quick start
//
//	device, _ := medsen.NewDevice(medsen.WithSeed(1))
//	sample := medsen.NewBloodSample(10, 350) // 10 µL at 350 cells/µL
//	res, _ := device.RunDiagnostic(ctx, medsen.RunConfig{
//		Sample:    sample,
//		DurationS: 120,
//	}, medsen.NewLocalAnalyzer())
//	fmt.Println(res.Diagnosis.Label)
//
// For the networked flow, start a cloud service (NewCloudService), point a
// PhoneRelay at it, and pass the relay as the Analyzer.
package medsen

import (
	"context"
	"fmt"

	"medsen/internal/beads"
	"medsen/internal/cipher"
	"medsen/internal/classify"
	"medsen/internal/cloud"
	"medsen/internal/controller"
	"medsen/internal/diagnosis"
	"medsen/internal/drbg"
	"medsen/internal/lockin"
	"medsen/internal/microfluidic"
	"medsen/internal/phone"
	"medsen/internal/sensor"
)

// Re-exported domain types. The internal packages carry the implementation;
// these aliases are the supported public surface.
type (
	// Sample is a fluid sample (blood, beads, or a mixture).
	Sample = microfluidic.Sample
	// ParticleType identifies a particle population.
	ParticleType = microfluidic.Type
	// Identifier is a cyto-coded password.
	Identifier = beads.Identifier
	// Alphabet is the bead-password alphabet.
	Alphabet = beads.Alphabet
	// Registry stores enrolled identifiers server-side.
	Registry = beads.Registry
	// Acquisition is a multi-carrier capture leaving the sensor.
	Acquisition = lockin.Acquisition
	// Report is the cloud's analysis outcome.
	Report = cloud.Report
	// AuthResult is a server-side authentication outcome.
	AuthResult = cloud.AuthResult
	// CloudService is the untrusted analysis server.
	CloudService = cloud.Service
	// CloudClient talks to a CloudService over HTTP.
	CloudClient = cloud.Client
	// Job is an async analysis job resource (202 Accepted submissions).
	Job = cloud.Job
	// JobStatus is the job lifecycle state (queued/running/done/failed).
	JobStatus = cloud.JobStatus
	// PhoneRelay is the untrusted smartphone forwarder.
	PhoneRelay = phone.Relay
	// Link models the phone's cellular uplink.
	Link = phone.Link
	// Analyzer is the controller's port to the untrusted analysis world.
	Analyzer = controller.Analyzer
	// RunConfig describes one diagnostic run.
	RunConfig = controller.RunConfig
	// DiagnosticResult is a completed diagnostic.
	DiagnosticResult = controller.DiagnosticResult
	// Panel is a clinical threshold rule.
	Panel = diagnosis.Panel
	// DiagnosisResult is a clinical outcome.
	DiagnosisResult = diagnosis.Result
	// History accumulates a patient's results for trend tracking.
	History = diagnosis.History
	// Observation is one dated measurement in a History.
	Observation = diagnosis.Observation
	// Projection is a trend extrapolation toward the next clinical band.
	Projection = diagnosis.Projection
	// CipherParams configures the analog-signal cipher.
	CipherParams = cipher.Params
	// KeySchedule is the secret sensor-configuration schedule.
	KeySchedule = cipher.Schedule
)

// Particle populations.
const (
	// BloodCell is the diagnostic target population.
	BloodCell = microfluidic.TypeBloodCell
	// Bead358 is the 3.58 µm synthetic password bead.
	Bead358 = microfluidic.TypeBead358
	// Bead780 is the 7.8 µm synthetic password bead.
	Bead780 = microfluidic.TypeBead780
)

// ParticleTypeFromName parses a particle type's wire name (the String form,
// e.g. "bead-3.58um").
func ParticleTypeFromName(name string) (ParticleType, error) {
	return microfluidic.TypeFromName(name)
}

// NewBloodSample returns a blood sample of the given volume and cell
// concentration.
func NewBloodSample(volumeUl, cellsPerUl float64) Sample {
	return microfluidic.NewSample(volumeUl, map[ParticleType]float64{BloodCell: cellsPerUl})
}

// DefaultAlphabet returns the paper's two-bead-type password alphabet.
func DefaultAlphabet() Alphabet { return beads.DefaultAlphabet() }

// CD4Panel returns the HIV-staging CD4 threshold panel.
func CD4Panel() Panel { return diagnosis.CD4Panel() }

// PlateletPanel returns the thrombocytopenia threshold panel.
func PlateletPanel() Panel { return diagnosis.PlateletPanel() }

// Device is a complete MedSen dongle: simulated bio-sensor plus trusted
// controller.
type Device struct {
	// Controller is the trusted computing base.
	Controller *controller.Controller
	// Sensor is the attached (simulated) bio-sensor.
	Sensor *sensor.Sensor

	rng *drbg.DRBG
}

// DeviceOption customizes device construction.
type DeviceOption func(*deviceOptions)

type deviceOptions struct {
	seed     *uint64
	panel    *Panel
	notify   func(string)
	sensorFn func() *sensor.Sensor
}

// WithSeed makes the device fully deterministic: key generation draws from
// the seeded DRBG, and the simulated physics from streams seeded by it.
// Without it the device seeds from OS entropy, as the physical controller
// does from /dev/random.
func WithSeed(seed uint64) DeviceOption {
	return func(o *deviceOptions) { o.seed = &seed }
}

// WithPanel selects the diagnostic rule (default: CD4 staging).
func WithPanel(p Panel) DeviceOption {
	return func(o *deviceOptions) { o.panel = &p }
}

// WithNotify installs a user-notification callback (the phone UI feed).
func WithNotify(fn func(string)) DeviceOption {
	return func(o *deviceOptions) { o.notify = fn }
}

// WithSensor substitutes a custom sensor configuration.
func WithSensor(fn func() *sensor.Sensor) DeviceOption {
	return func(o *deviceOptions) { o.sensorFn = fn }
}

// NewDevice assembles a MedSen device with the default 9-output sensor.
func NewDevice(opts ...DeviceOption) (*Device, error) {
	var o deviceOptions
	for _, opt := range opts {
		opt(&o)
	}
	var rng *drbg.DRBG
	if o.seed != nil {
		rng = drbg.NewFromSeed(*o.seed)
	} else {
		var err error
		rng, err = drbg.NewFromEntropy()
		if err != nil {
			return nil, fmt.Errorf("medsen: seeding controller entropy: %w", err)
		}
	}
	s := sensor.NewDefault()
	if o.sensorFn != nil {
		s = o.sensorFn()
	}
	ctrl, err := controller.New(s, rng)
	if err != nil {
		return nil, err
	}
	if o.panel != nil {
		ctrl.Panel = *o.panel
	}
	ctrl.Notify = o.notify
	return &Device{Controller: ctrl, Sensor: s, rng: rng}, nil
}

// RunDiagnostic executes the private diagnostic flow of the paper's Fig. 2:
// key generation → encrypted acquisition → untrusted analysis → decryption →
// threshold diagnosis.
func (d *Device) RunDiagnostic(ctx context.Context, cfg RunConfig, analyzer Analyzer) (DiagnosticResult, error) {
	return d.Controller.RunDiagnostic(ctx, cfg, analyzer)
}

// AcquirePlaintext runs the sensor with encryption off (lead electrode only)
// — the §V mode used for server-side cyto-coded authentication.
func (d *Device) AcquirePlaintext(sample Sample, durationS float64) (Acquisition, error) {
	res, err := d.Sensor.Acquire(sensor.AcquireConfig{Sample: sample, DurationS: durationS}, d.rng)
	if err != nil {
		return Acquisition{}, err
	}
	return res.Acquisition, nil
}

// MixPassword mixes a patient's password pipette with their blood sample
// under the standard protocol.
func (d *Device) MixPassword(id Identifier, blood Sample) (Sample, error) {
	return d.Controller.Alphabet.MixedSample(id, blood)
}

// NewIdentifier draws a fresh random cyto-coded password from the device's
// entropy source.
func (d *Device) NewIdentifier() (Identifier, error) {
	return d.Controller.Alphabet.NewIdentifier(d.rng)
}

// NewCloudService builds an analysis service with default pipeline,
// classifier and an empty enrollment registry. Serve its Handler() with
// net/http.
func NewCloudService() (*CloudService, error) {
	return cloud.NewService(cloud.ServiceConfig{})
}

// NewCloudClient returns a client for a cloud service base URL.
func NewCloudClient(baseURL string) *CloudClient {
	return &cloud.Client{BaseURL: baseURL}
}

// NewPhoneRelay returns an untrusted phone relay uploading to the given
// cloud service over a default 4G link model.
func NewPhoneRelay(baseURL string) *PhoneRelay {
	return &phone.Relay{
		Client: NewCloudClient(baseURL),
		Uplink: phone.Default4G(),
	}
}

// NewHistory builds an empty measurement history over a panel for trend
// tracking (the paper's daily-testing scenario).
func NewHistory(p Panel) (*History, error) {
	return diagnosis.NewHistory(p)
}

// RunAuthentication performs a §V cyto-coded login through the relay: beads
// mixed into blood, plaintext acquisition, server-side bead classification
// and account matching.
func (d *Device) RunAuthentication(
	ctx context.Context,
	id Identifier,
	blood Sample,
	durationS float64,
	relay *PhoneRelay,
) (AuthResult, error) {
	return d.Controller.RunAuthentication(ctx, id, blood, durationS, relay)
}

// NewLocalAnalyzer runs the analysis pipeline on-device (the paper's
// small-dataset smartphone mode).
func NewLocalAnalyzer() Analyzer {
	return &controller.LocalAnalyzer{}
}

// NewReferenceClassifier returns the physics-calibrated particle classifier
// over the default carrier set.
func NewReferenceClassifier() (*classify.Model, error) {
	return classify.ReferenceModel(lockin.DefaultCarriersHz())
}
