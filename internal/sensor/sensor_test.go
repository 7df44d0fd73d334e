package sensor

import (
	"bytes"
	"math"
	"testing"

	"medsen/internal/cipher"
	"medsen/internal/drbg"
	"medsen/internal/electrode"
	"medsen/internal/lockin"
	"medsen/internal/microfluidic"
	"medsen/internal/sigproc"
)

// analysisChannel is the carrier the tests run peak detection on; 2 MHz is
// the frequency the paper's Fig. 11 captures use.
const analysisChannel = 2000e3

func quietSensor(t *testing.T) *Sensor {
	t.Helper()
	s := NewDefault()
	// Tame noise and drift so count assertions are tight; dedicated
	// tests cover noisy operation.
	s.Lockin.NoiseSigma = 0.00008
	s.Lockin.Drift = lockin.Drift{LinearPerHour: -0.02}
	s.Loss = microfluidic.LossModel{Disabled: true}
	return s
}

func detect(t *testing.T, acq lockin.Acquisition, freqHz float64) []sigproc.Peak {
	t.Helper()
	tr, err := acq.Channel(freqHz)
	if err != nil {
		t.Fatalf("Channel: %v", err)
	}
	flat, err := sigproc.Detrend(tr, sigproc.DefaultDetrendConfig())
	if err != nil {
		t.Fatalf("Detrend: %v", err)
	}
	return sigproc.DetectPeaks(flat, sigproc.DefaultPeakConfig())
}

func TestNewValidation(t *testing.T) {
	arr := electrode.MustArray(9)
	ch := microfluidic.DefaultChannel()
	lk := lockin.DefaultConfig()
	carriers := lockin.DefaultCarriersHz()

	if _, err := New(electrode.Array{}, ch, carriers, lk); err == nil {
		t.Error("expected error for invalid array")
	}
	if _, err := New(arr, microfluidic.Channel{}, carriers, lk); err == nil {
		t.Error("expected error for invalid channel")
	}
	if _, err := New(arr, ch, nil, lk); err == nil {
		t.Error("expected error for no carriers")
	}
	if _, err := New(arr, ch, []float64{-5}, lk); err == nil {
		t.Error("expected error for negative carrier")
	}
	if _, err := New(arr, ch, carriers, lockin.Config{}); err == nil {
		t.Error("expected error for invalid lockin config")
	}
	if _, err := New(arr, ch, carriers, lk); err != nil {
		t.Errorf("valid construction failed: %v", err)
	}
}

func TestAcquireValidation(t *testing.T) {
	s := quietSensor(t)
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{microfluidic.TypeBloodCell: 500})
	if _, err := s.Acquire(AcquireConfig{Sample: sample, DurationS: 10}, nil); err == nil {
		t.Error("expected nil-rng error")
	}
	if _, err := s.Acquire(AcquireConfig{Sample: sample, DurationS: 0}, drbg.NewFromSeed(1)); err == nil {
		t.Error("expected duration error")
	}
	short, err := cipher.Generate(cipher.DefaultParams(), 1, drbg.NewFromSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Acquire(AcquireConfig{Sample: sample, DurationS: 10, Schedule: short}, drbg.NewFromSeed(1)); err == nil {
		t.Error("expected schedule-coverage error")
	}
}

func TestPlaintextAcquireOnePeakPerParticle(t *testing.T) {
	s := quietSensor(t)
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 150, // ~0.2 arrivals/s: single-file
	})
	res, err := s.Acquire(AcquireConfig{Sample: sample, DurationS: 120}, drbg.NewFromSeed(21))
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if len(res.Transits) == 0 {
		t.Fatal("no transits generated")
	}
	peaks := detect(t, res.Acquisition, analysisChannel)
	// Plaintext mode: lead electrode only → exactly one peak per particle
	// (coincident particles may merge occasionally).
	diff := math.Abs(float64(len(peaks) - len(res.Transits)))
	if diff > 0.05*float64(len(res.Transits))+1 {
		t.Fatalf("peaks %d vs transits %d", len(peaks), len(res.Transits))
	}
}

func TestEncryptedAcquireMultipliesPeaks(t *testing.T) {
	s := quietSensor(t)
	p := s.CipherParams()
	p.MinActive = 2
	// Unit-ish gains keep every peak above detection threshold here; gain
	// ablation is tested separately.
	p.GainMin, p.GainMax = 0.9, 1.8
	sched, err := cipher.Generate(p, 180, drbg.NewFromSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 150,
	})
	res, err := s.Acquire(AcquireConfig{Sample: sample, DurationS: 180, Schedule: sched}, drbg.NewFromSeed(22))
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	peaks := detect(t, res.Acquisition, analysisChannel)

	// Expected ciphertext peak count: per transit, each gap crossing is
	// gated by the key in force when the particle reaches it.
	want := 0
	crossings := s.Array.Crossings(nil)
	for _, tr := range res.Transits {
		v := tr.VelocityUmS * sched.SpeedAt(tr.EntryS)
		for _, c := range crossings {
			if sched.KeyAt(tr.EntryS + c.OffsetUm/v).Active[c.Electrode] {
				want++
			}
		}
	}
	if want <= len(res.Transits) {
		t.Fatalf("test setup: expected multiplication, want %d > transits %d", want, len(res.Transits))
	}
	diff := math.Abs(float64(len(peaks) - want))
	if diff > 0.10*float64(want)+2 {
		t.Fatalf("ciphertext peaks %d, want ~%d (true particles: %d)", len(peaks), want, len(res.Transits))
	}
}

func TestEncryptDetectDecryptRoundTrip(t *testing.T) {
	s := quietSensor(t)
	p := s.CipherParams()
	p.MinActive = 2
	p.GainMin, p.GainMax = 0.9, 1.8
	sched, err := cipher.Generate(p, 180, drbg.NewFromSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 150,
	})
	res, err := s.Acquire(AcquireConfig{Sample: sample, DurationS: 180, Schedule: sched}, drbg.NewFromSeed(23))
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	peaks := detect(t, res.Acquisition, analysisChannel)
	dec, err := sched.Decrypt(peaks, s.Array)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	truth := len(res.Transits)
	if truth == 0 {
		t.Fatal("no transits")
	}
	relErr := math.Abs(float64(dec.Count-truth)) / float64(truth)
	if relErr > 0.10 {
		t.Fatalf("decrypted count %d vs truth %d (rel err %.3f)", dec.Count, truth, relErr)
	}
	// Resolved particles should recover the blood-cell amplitude at the
	// analysis carrier within the noise floor.
	if len(dec.Particles) == 0 {
		t.Fatal("no particles resolved")
	}
	wantAmp := microfluidic.PropertiesOf(microfluidic.TypeBloodCell).AmplitudeAt(analysisChannel)
	amps := make([]float64, 0, len(dec.Particles))
	for _, est := range dec.Particles {
		amps = append(amps, est.Amplitude)
	}
	meanAmp := sigproc.Mean(amps)
	if math.Abs(meanAmp-wantAmp)/wantAmp > 0.25 {
		t.Fatalf("mean recovered amplitude %v, want ~%v", meanAmp, wantAmp)
	}
}

func TestEavesdropperSeesMultipliedCount(t *testing.T) {
	// The analyst's raw peak count must not match the true count under
	// encryption (that is the whole point of the cipher).
	s := quietSensor(t)
	p := s.CipherParams()
	p.MinActive = 3
	p.GainMin, p.GainMax = 0.9, 1.8
	sched, err := cipher.Generate(p, 60, drbg.NewFromSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 150,
	})
	res, err := s.Acquire(AcquireConfig{Sample: sample, DurationS: 60, Schedule: sched}, drbg.NewFromSeed(29))
	if err != nil {
		t.Fatal(err)
	}
	peaks := detect(t, res.Acquisition, analysisChannel)
	if float64(len(peaks)) < 2.5*float64(len(res.Transits)) {
		t.Fatalf("ciphertext count %d should be a large multiple of truth %d",
			len(peaks), len(res.Transits))
	}
}

func TestAcquireDeterministicWithSeed(t *testing.T) {
	s := quietSensor(t)
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBead780: 600,
	})
	cfg := AcquireConfig{Sample: sample, DurationS: 20}
	a, err := s.Acquire(cfg, drbg.NewFromSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Acquire(cfg, drbg.NewFromSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Transits) != len(b.Transits) {
		t.Fatal("transit streams differ")
	}
	ta := a.Acquisition.Traces[0].Samples
	tb := b.Acquisition.Traces[0].Samples
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatal("traces differ for equal seeds")
		}
	}
}

func TestAcquireAllCarriersRendered(t *testing.T) {
	s := quietSensor(t)
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBead358: 400,
	})
	res, err := s.Acquire(AcquireConfig{Sample: sample, DurationS: 10}, drbg.NewFromSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Acquisition.Traces); got != len(lockin.DefaultCarriersHz()) {
		t.Fatalf("rendered %d carriers", got)
	}
	for i, tr := range res.Acquisition.Traces {
		if len(tr.Samples) != 4500 {
			t.Fatalf("carrier %d trace length %d, want 4500", i, len(tr.Samples))
		}
	}
}

// An acquisition draws its physics seeds from the device DRBG and nothing
// else, so the key schedule generated after it does not depend on the
// capture's duration, sample or mode: two devices with one seed derive the
// same next schedule after different acquisitions.
func TestKeyScheduleIndependentOfPriorAcquisition(t *testing.T) {
	s := NewDefault()
	params := s.CipherParams()
	encrypting, err := cipher.Generate(params, 30, drbg.NewFromSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	acquisitions := []AcquireConfig{
		{Sample: microfluidic.NewSample(10, map[microfluidic.Type]float64{
			microfluidic.TypeBloodCell: 150,
		}), DurationS: 5},
		{Sample: microfluidic.NewSample(10, map[microfluidic.Type]float64{
			microfluidic.TypeBloodCell: 600,
			microfluidic.TypeBead358:   200,
		}), DurationS: 30, Schedule: encrypting},
	}
	var want []byte
	for i, cfg := range acquisitions {
		rng := drbg.NewFromSeed(42)
		if _, err := s.Acquire(cfg, rng); err != nil {
			t.Fatalf("acquisition %d: %v", i, err)
		}
		next, err := cipher.Generate(params, 30, rng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := next.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("acquisition %d (%vs, encrypted %v) changed the next key schedule",
				i, cfg.DurationS, cfg.Schedule != nil)
		}
	}
}
