package lockin

import (
	"fmt"
	"math"
	"testing"

	"medsen/internal/sigproc"
)

// envelopeWithDip is a 1.0 baseline with a Gaussian dip, like a particle
// transit.
func envelopeWithDip(n int, rate, depth float64) sigproc.Trace {
	samples := make([]float64, n)
	center := n / 2
	sigmaSamples := rate * 0.005 // 5 ms dip
	for i := range samples {
		d := float64(i-center) / sigmaSamples
		samples[i] = 1 - depth*math.Exp(-0.5*d*d)
	}
	return sigproc.Trace{Rate: rate, Samples: samples}
}

func TestModulateDemodulateRecoversEnvelope(t *testing.T) {
	// Full carrier-level validation of the envelope abstraction: a 500 kHz
	// carrier sampled at 5 MHz carrying a 1% dip.
	const (
		carrierHz   = 500e3
		rawRateHz   = 5e6
		outRateHz   = 450.0
		excitationV = 1.0
		depth       = 0.01
	)
	env := envelopeWithDip(225, outRateHz, depth) // 0.5 s at the output rate

	raw, err := Modulate(env, carrierHz, rawRateHz, excitationV)
	if err != nil {
		t.Fatalf("Modulate: %v", err)
	}
	got, err := Demodulate(raw, carrierHz, 120, outRateHz, excitationV)
	if err != nil {
		t.Fatalf("Demodulate: %v", err)
	}

	// Baseline recovers near 1 (skip the filter settle-in).
	settle := 40
	for i := settle; i < len(got.Samples)/4; i++ {
		if math.Abs(got.Samples[i]-1) > 0.02 {
			t.Fatalf("baseline sample %d = %v, want ~1", i, got.Samples[i])
		}
	}
	// The dip survives demodulation with roughly its depth.
	min, _ := sigproc.MinMax(got.Samples[settle:])
	recovered := 1 - min
	if recovered < depth*0.5 || recovered > depth*1.3 {
		t.Fatalf("recovered dip depth %v, want ~%v", recovered, depth)
	}
}

func TestDemodulateRejectsWrongCarrier(t *testing.T) {
	// Demodulating at a far-off reference must not reproduce the
	// envelope: the mixing product lands outside the low-pass band.
	env := envelopeWithDip(225, 450, 0.01)
	raw, err := Modulate(env, 500e3, 5e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Demodulate(raw, 800e3, 120, 450, 1)
	if err != nil {
		t.Fatal(err)
	}
	mean := sigproc.Mean(got.Samples[40:])
	if mean > 0.2 {
		t.Fatalf("wrong-carrier output mean %v, want near 0 (rejected)", mean)
	}
}

func TestModulateValidation(t *testing.T) {
	env := envelopeWithDip(100, 450, 0.01)
	if _, err := Modulate(env, 0, 5e6, 1); err == nil {
		t.Error("expected error for zero carrier")
	}
	if _, err := Modulate(env, 500e3, 500e3, 1); err == nil {
		t.Error("expected Nyquist error")
	}
	if _, err := Modulate(sigproc.Trace{}, 500e3, 5e6, 1); err == nil {
		t.Error("expected error for empty envelope")
	}
}

func TestDemodulateValidation(t *testing.T) {
	raw := sigproc.Trace{Rate: 5e6, Samples: make([]float64, 1000)}
	if _, err := Demodulate(raw, 0, 120, 450, 1); err == nil {
		t.Error("expected error for zero carrier")
	}
	if _, err := Demodulate(raw, 500e3, 0, 450, 1); err == nil {
		t.Error("expected error for zero cutoff")
	}
	if _, err := Demodulate(raw, 500e3, 120, 0, 1); err == nil {
		t.Error("expected error for zero output rate")
	}
	if _, err := Demodulate(raw, 500e3, 120, 450, 0); err == nil {
		t.Error("expected error for zero excitation")
	}
	if _, err := Demodulate(sigproc.Trace{Rate: 100, Samples: raw.Samples}, 500e3, 120, 450, 1); err == nil {
		t.Error("expected Nyquist error")
	}
}

// Carrier-level modulation and demodulation. The rest of the package works
// at the envelope level — the demodulated output the HF2IS hands to the
// host — which is what the cloud pipeline consumes. These helpers implement
// the actual lock-in operation (§VI-D: "the electrical impedance
// measurement between the electrode pairs ... is modulated by the carrier
// frequencies. In recovering the signal measurement, the signal is
// demodulated by the same carrier frequencies") only so the tests can verify
// that the envelope abstraction is faithful: modulating an envelope onto a
// carrier and demodulating it recovers the envelope.

// Modulate mixes a baseband envelope onto an AC carrier: the current through
// the electrode pair is the excitation scaled by the (impedance-determined)
// envelope. rawRateHz is the simulated front-end sampling rate and must obey
// Nyquist for the carrier.
func Modulate(envelope sigproc.Trace, carrierHz, rawRateHz, excitationV float64) (sigproc.Trace, error) {
	if carrierHz <= 0 {
		return sigproc.Trace{}, fmt.Errorf("lockin: non-positive carrier %v", carrierHz)
	}
	if rawRateHz < 2*carrierHz {
		return sigproc.Trace{}, fmt.Errorf("lockin: raw rate %v below Nyquist for %v Hz", rawRateHz, carrierHz)
	}
	if envelope.Rate <= 0 || len(envelope.Samples) == 0 {
		return sigproc.Trace{}, fmt.Errorf("lockin: empty envelope")
	}
	durationS := envelope.Duration()
	n := int(durationS * rawRateHz)
	out := make([]float64, n)
	// Hoisted per-sample increments: the carrier phase advances by a fixed
	// omega per raw sample and the envelope index by a fixed rate ratio, so
	// the loop runs one multiply each instead of rebuilding 2π·f·t from
	// scratch.
	omega := 2 * math.Pi * carrierHz / rawRateHz
	rateRatio := envelope.Rate / rawRateHz
	for i := range out {
		// Sample-and-hold interpolation of the envelope is ample: the
		// envelope bandwidth (≤ 120 Hz) is far below the carrier.
		idx := int(float64(i) * rateRatio)
		if idx >= len(envelope.Samples) {
			idx = len(envelope.Samples) - 1
		}
		out[i] = excitationV * envelope.Samples[idx] * math.Sin(omega*float64(i))
	}
	return sigproc.Trace{Rate: rawRateHz, Samples: out}, nil
}

// Demodulate implements the dual-phase lock-in: multiply by quadrature
// references at the carrier, low-pass both products, and output the
// magnitude envelope resampled at outRateHz (450 Hz in the deployment).
func Demodulate(raw sigproc.Trace, carrierHz, cutoffHz, outRateHz, excitationV float64) (sigproc.Trace, error) {
	if carrierHz <= 0 || cutoffHz <= 0 || outRateHz <= 0 {
		return sigproc.Trace{}, fmt.Errorf("lockin: bad demodulation parameters")
	}
	if raw.Rate < 2*carrierHz {
		return sigproc.Trace{}, fmt.Errorf("lockin: raw rate %v below Nyquist for %v Hz", raw.Rate, carrierHz)
	}
	if excitationV <= 0 {
		return sigproc.Trace{}, fmt.Errorf("lockin: non-positive excitation %v", excitationV)
	}
	n := len(raw.Samples)
	inPhase := make([]float64, n)
	quadrature := make([]float64, n)
	// One Sincos per sample instead of a separate Sin and Cos, with the
	// phase increment hoisted out of the loop.
	omega := 2 * math.Pi * carrierHz / raw.Rate
	for i, v := range raw.Samples {
		sin, cos := math.Sincos(omega * float64(i))
		// ×2 restores unit gain: sin·sin averages to 1/2.
		inPhase[i] = 2 * v * sin
		quadrature[i] = 2 * v * cos
	}
	// Two cascaded single-pole stages steepen the roll-off around the
	// 2·carrier mixing images.
	for _, s := range [][]float64{inPhase, inPhase, quadrature, quadrature} {
		sigproc.LowPassInPlace(sigproc.Trace{Rate: raw.Rate, Samples: s}, cutoffHz)
	}

	outN := int(float64(n) / raw.Rate * outRateHz)
	out := make([]float64, outN)
	decimate := raw.Rate / outRateHz
	for i := range out {
		src := int(float64(i) * decimate)
		if src >= n {
			src = n - 1
		}
		out[i] = math.Hypot(inPhase[src], quadrature[src]) / excitationV
	}
	return sigproc.Trace{Rate: outRateHz, Samples: out}, nil
}
