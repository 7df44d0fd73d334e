// Package electrode models the MedSen co-planar micro-electrode array: the
// multi-output geometries of Fig. 5 (2, 3, 5, 9 and 16 independent outputs
// interleaved with a common excitation rake) and the per-transit pulse
// grammar of §III-B: the lead electrode answers each passing particle with a
// single voltage drop, every other active output with a double peak, because
// it is flanked by excitation electrodes on both sides. Pulses are rendered
// in the resistance-dominant regime of §III-A's double-layer interface
// (capacitive below ~10 kHz, resistive above ~100 kHz), where the lock-in's
// carriers sit; the tests' interface model checks that.
package electrode

import (
	"fmt"

	"medsen/internal/microfluidic"
)

// Geometry constants of the fabricated device (§VI-A).
const (
	// WidthUm is the electrode width (20 µm).
	WidthUm = 20.0
	// PitchUm is the electrode pitch (25 µm).
	PitchUm = 25.0
)

// Array describes a sensing region with one common excitation rake and
// NumOutputs independent output electrodes. Output 0 is the lead electrode
// (the paper's "lower left" electrode, labelled 9 in Fig. 11): it has an
// excitation neighbour on one side only and yields a single peak per
// particle; every other output is flanked on both sides and yields a double
// peak.
type Array struct {
	// NumOutputs is the number of independent output electrodes.
	NumOutputs int
	// PitchUm is the electrode pitch in µm.
	PitchUm float64
	// WidthUm is the electrode width in µm.
	WidthUm float64
	// SensingLengthUm is the length of channel over which one gap
	// crossing perturbs the measured impedance. For the fabricated
	// geometry it equals the 45 µm span of §VII-A (one pitch plus two
	// electrode half-widths), which makes a ~20 ms pulse at the nominal
	// flow; wider-pitch revisions confine it further so that adjacent
	// crossings resolve at the 450 Hz output rate.
	SensingLengthUm float64
}

// NewArray returns an array with the fabricated geometry and the given
// number of outputs. The paper fabricates 2-, 3-, 5- and 9-output designs
// (Fig. 5) and sizes keys for a 16-output design (§VI-B).
func NewArray(numOutputs int) (Array, error) {
	if numOutputs < 1 {
		return Array{}, fmt.Errorf("electrode: array needs at least 1 output, got %d", numOutputs)
	}
	return Array{
		NumOutputs:      numOutputs,
		PitchUm:         PitchUm,
		WidthUm:         WidthUm,
		SensingLengthUm: PitchUm + WidthUm,
	}, nil
}

// MustArray is NewArray for static configurations known to be valid.
func MustArray(numOutputs int) Array {
	a, err := NewArray(numOutputs)
	if err != nil {
		panic(err)
	}
	return a
}

// NewArrayWithPitch returns an array with a custom electrode pitch. §VII-A
// identifies the fabricated 25 µm pitch as a limitation — adjacent-electrode
// peaks are not cleanly separable at the 450 Hz output rate — and proposes
// "putting more space between the electrodes"; wider-pitch designs implement
// that fix.
func NewArrayWithPitch(numOutputs int, pitchUm float64) (Array, error) {
	a, err := NewArray(numOutputs)
	if err != nil {
		return Array{}, err
	}
	if pitchUm < WidthUm {
		return Array{}, fmt.Errorf("electrode: pitch %v µm below electrode width %v µm", pitchUm, WidthUm)
	}
	a.PitchUm = pitchUm
	// Keep the sensing zone at the fabricated scale rather than growing
	// it with the pitch: spreading the electrodes does not widen the
	// field constriction at each gap.
	return a, nil
}

// PulseSigmaS returns the Gaussian half-width (σ, in seconds) of the voltage
// drop a particle moving at the given velocity produces at one gap: the
// sensing length spans about 4σ, giving the ~20 ms full width of §VII-A at
// the nominal 2.2 mm/s.
func (a Array) PulseSigmaS(velocityUmS float64) float64 {
	if velocityUmS <= 0 {
		return 0
	}
	sensing := a.SensingLengthUm
	if sensing <= 0 {
		sensing = a.PitchUm + a.WidthUm
	}
	return (sensing / 4) / velocityUmS
}

// Crossing is one position along the sensing region where a passing particle
// produces a voltage drop on some output electrode.
type Crossing struct {
	// OffsetUm is the position relative to the particle's entry into the
	// sensing region.
	OffsetUm float64
	// Electrode is the output electrode index registering the drop.
	Electrode int
}

// Crossings returns every gap crossing of the array in geometric order. A
// nil active mask selects all outputs; otherwise only active electrodes
// contribute. The lead electrode (index 0) contributes one crossing, every
// other output two.
func (a Array) Crossings(active []bool) []Crossing {
	return a.AppendCrossings(nil, active)
}

// AppendCrossings is Crossings appending into dst (which may be nil or a
// recycled slice with spare capacity), for callers that build crossing sets
// repeatedly — the schedule decryptor resolves one set per epoch group, and
// a fresh sorted slice per group was a measurable share of its cost.
func (a Array) AppendCrossings(dst []Crossing, active []bool) []Crossing {
	start := len(dst)
	if dst == nil {
		n := 0
		for i := 0; i < a.NumOutputs; i++ {
			if active == nil || (i < len(active) && active[i]) {
				n += crossingsPerOutput(i)
			}
		}
		dst = make([]Crossing, 0, n)
	}
	for i := 0; i < a.NumOutputs; i++ {
		if active != nil && (i >= len(active) || !active[i]) {
			continue
		}
		offs, n := a.crossingOffsetsUm(i)
		for _, off := range offs[:n] {
			dst = append(dst, Crossing{OffsetUm: off, Electrode: i})
		}
	}
	// Construction order is already geometric for any positive pitch (gap
	// centers grow strictly with the electrode index), so this insertion
	// sort is a linear confirmation scan — and unlike sort.Sort it does not
	// box the slice into an interface, keeping the call allocation-free.
	out := dst[start:]
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].OffsetUm < out[j-1].OffsetUm; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return dst
}

// crossingsPerOutput returns how many gap crossings output idx produces.
func crossingsPerOutput(idx int) int {
	if idx == 0 {
		return 1
	}
	return 2
}

// RegionLengthUm returns the total length of the sensing region: outputs
// interleaved with excitation electrodes.
func (a Array) RegionLengthUm() float64 {
	// One excitation + output per slot, plus the closing excitation rake
	// tooth for all but the lead side.
	return float64(2*a.NumOutputs+1) * a.PitchUm
}

// PeaksPerParticle returns how many voltage drops a single particle causes
// for a given active-electrode mask: one for the lead electrode plus two per
// other active output (§III-B; Fig. 8 shows 1+2+2 = 5 peaks for outputs
// {1,2,3} of the 9-output device). This is the cipher's peak multiplication
// factor.
func (a Array) PeaksPerParticle(active []bool) int {
	n := 0
	for i, on := range active {
		if !on || i >= a.NumOutputs {
			continue
		}
		if i == 0 {
			n++
		} else {
			n += 2
		}
	}
	return n
}

// crossingOffsetsUm returns the positions (µm from the particle's entry into
// the sensing region) at which output electrode idx registers a voltage
// drop: the first n entries of the returned buffer are valid.
func (a Array) crossingOffsetsUm(idx int) ([2]float64, int) {
	// Output idx sits at slot 2·idx+1 within the interleaved rake; its
	// gap centers are half a pitch to each side.
	center := float64(2*idx+1) * a.PitchUm
	if idx == 0 {
		// Lead electrode: excitation neighbour on the right side only.
		return [2]float64{center + a.PitchUm/2}, 1
	}
	return [2]float64{center - a.PitchUm/2, center + a.PitchUm/2}, 2
}

// Pulse is a single voltage-drop event produced by one particle crossing one
// electrode gap.
type Pulse struct {
	// TimeS is the apex time in seconds from acquisition start.
	TimeS float64
	// Amplitude is the fractional impedance drop at the excitation
	// frequency, after the electrode's output gain is applied.
	Amplitude float64
	// SigmaS is the Gaussian half-width of the drop in seconds
	// (set by the particle's transit speed over the electrode span).
	SigmaS float64
	// Electrode is the output electrode index that registered the drop.
	Electrode int
	// Particle is the particle type that caused the drop (ground truth;
	// never leaves the sensor).
	Particle microfluidic.Type
}

// PulsesForTransit expands one particle transit into the voltage-drop events
// seen by the active output electrodes.
//
// active[i] selects output electrode i; gains[i] scales its output (the
// cipher's G component; pass nil for unit gains). freqHz is the excitation
// carrier, speedFactor scales the particle velocity (the cipher's S
// component; 1 = nominal pump speed).
func (a Array) PulsesForTransit(
	tr microfluidic.Transit,
	freqHz float64,
	active []bool,
	gains []float64,
	speedFactor float64,
) []Pulse {
	if speedFactor <= 0 {
		speedFactor = 1
	}
	v := tr.VelocityUmS * speedFactor
	if v <= 0 {
		return nil
	}
	props := microfluidic.PropertiesOf(tr.Type)
	baseAmp := props.AmplitudeAt(freqHz) * tr.EffectiveSizeScale()
	// A slower particle occludes the gap longer: the pulse widens as the
	// sensing-length/velocity ratio (~20 ms full width at the nominal
	// 2.2 mm/s of §VII-A).
	sigma := a.PulseSigmaS(v)

	pulses := make([]Pulse, 0, a.PeaksPerParticle(active))
	for i := 0; i < a.NumOutputs && i < len(active); i++ {
		if !active[i] {
			continue
		}
		gain := 1.0
		if gains != nil && i < len(gains) {
			gain = gains[i]
		}
		offs, n := a.crossingOffsetsUm(i)
		for _, off := range offs[:n] {
			pulses = append(pulses, Pulse{
				TimeS:     tr.EntryS + off/v,
				Amplitude: baseAmp * gain,
				SigmaS:    sigma,
				Electrode: i,
				Particle:  tr.Type,
			})
		}
	}
	return pulses
}
