// Package microfluidic simulates the MedSen microfluidic channel: the PDMS
// measurement pore of §III-C, the particle populations (blood cells and the
// synthetic password beads of §V), the pump-driven flow, and the particle
// loss mechanisms (inlet sedimentation and wall adsorption) the paper
// identifies as the cause of the count deficits in Figs. 12 and 13.
//
// The simulator's single product is a stream of Transit events — which
// particle type crossed the sensing region, when, and how fast — which the
// electrode model turns into voltage waveforms. This is exactly the
// information the physical channel delivers to the electrodes, so every
// downstream code path (encryption, peak analysis, authentication) is
// exercised as in the real device.
package microfluidic

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"medsen/internal/drbg"
)

// Type identifies a particle population. The paper's experiments use human
// blood cells plus two synthetic bead sizes (7.8 µm and 3.58 µm, §VII).
type Type int

// Particle types. Bead358 is the amplitude reference: blood cells present
// roughly twice its peak amplitude and Bead780 roughly four times (§VI-B).
const (
	TypeBloodCell Type = iota + 1
	TypeBead358
	TypeBead780
)

// String returns a short human-readable particle name.
func (t Type) String() string {
	switch t {
	case TypeBloodCell:
		return "blood-cell"
	case TypeBead358:
		return "bead-3.58um"
	case TypeBead780:
		return "bead-7.8um"
	default:
		return fmt.Sprintf("particle(%d)", int(t))
	}
}

// allTypes is the closed particle-type enum in stable (ascending) order.
// NumTypes and the array-backed properties table are sized from it.
var allTypes = [...]Type{TypeBloodCell, TypeBead358, TypeBead780}

// NumTypes is the number of supported particle types.
const NumTypes = 3

// AllTypes lists every supported particle type in a stable order. The
// returned slice is a fresh copy; callers may keep or mutate it. Hot paths
// that only iterate should prefer a fixed loop over TypeBloodCell..Bead780
// (see controller.nearestTypeByAmplitude) to avoid the allocation.
func AllTypes() []Type {
	out := make([]Type, len(allTypes))
	copy(out, allTypes[:])
	return out
}

// TypeFromName parses the String form of a particle type (the wire format
// used by the cloud API).
func TypeFromName(name string) (Type, error) {
	for _, t := range AllTypes() {
		if t.String() == name {
			return t, nil
		}
	}
	return 0, fmt.Errorf("microfluidic: unknown particle type %q", name)
}

// Properties captures the physical and dielectric parameters of a particle
// type that the electrode model consumes.
type Properties struct {
	// Name is a human-readable label.
	Name string
	// DiameterUm is the particle diameter in micrometers.
	DiameterUm float64
	// BaseAmplitude is the fractional impedance drop the particle causes
	// at low excitation frequency (relative to baseline; 0.003 = 0.3%).
	BaseAmplitude float64
	// RolloffHz is the β-dispersion corner frequency: above it the
	// particle's membrane admits the field and the measured amplitude
	// declines. Zero means no roll-off (solid dielectric beads).
	RolloffHz float64
	// SettlingRate scales how quickly the population sediments out of
	// the inlet well (per hour). Denser/larger particles settle faster.
	SettlingRate float64
	// AdsorptionFraction is the fraction of particles lost to channel
	// wall adsorption before reaching the sensor.
	AdsorptionFraction float64
}

// propertiesTable holds the calibrated per-type parameters, indexed by Type
// (an array rather than a map: PropertiesOf sits inside the per-pulse loops
// of the sensor and controller, where a map lookup per call is measurable).
// The amplitude ratios (1× / 2× / 4×) and the ≥2 MHz blood-cell roll-off
// reproduce the spectra of Fig. 15 and the clusters of Fig. 16.
var propertiesTable = [NumTypes + 1]Properties{
	TypeBloodCell: {
		Name:               "blood-cell",
		DiameterUm:         6.2,
		BaseAmplitude:      0.0060,
		RolloffHz:          2.4e6,
		SettlingRate:       0.10,
		AdsorptionFraction: 0.03,
	},
	TypeBead358: {
		Name:               "bead-3.58um",
		DiameterUm:         3.58,
		BaseAmplitude:      0.0030,
		RolloffHz:          0,
		SettlingRate:       0.22,
		AdsorptionFraction: 0.06,
	},
	TypeBead780: {
		Name:               "bead-7.8um",
		DiameterUm:         7.8,
		BaseAmplitude:      0.0120,
		RolloffHz:          0,
		SettlingRate:       0.35,
		AdsorptionFraction: 0.08,
	},
}

// PropertiesOf returns the calibrated properties for a particle type. It
// panics for unknown types: particle types are a closed enum and an unknown
// value marks a programming error, not a runtime condition.
func PropertiesOf(t Type) Properties {
	if t < TypeBloodCell || t > TypeBead780 {
		panic(fmt.Sprintf("microfluidic: unknown particle type %d", int(t)))
	}
	return propertiesTable[t]
}

// AmplitudeAt returns the fractional impedance drop this particle type
// produces at the given excitation frequency, implementing the single-pole
// β-dispersion roll-off blood cells exhibit above ~2 MHz (Fig. 15a).
func (p Properties) AmplitudeAt(freqHz float64) float64 {
	if p.RolloffHz <= 0 || freqHz <= 0 {
		return p.BaseAmplitude
	}
	ratio := freqHz / p.RolloffHz
	return p.BaseAmplitude / math.Sqrt(1+ratio*ratio)
}

// Channel describes the microfluidic channel geometry and pump setting of
// §III-C and §VI-D.
type Channel struct {
	// WidthUm and HeightUm are the measurement pore cross-section
	// (30 µm × 20 µm in the fabricated device).
	WidthUm  float64
	HeightUm float64
	// PoreLengthUm is the measurement pore length (500 µm).
	PoreLengthUm float64
	// FlowRateUlMin is the pump rate in µL/min (0.08 in the paper's
	// experiments; §VII computes an actual rate of 0.081 µL/min).
	FlowRateUlMin float64
}

// DefaultChannel returns the fabricated device's geometry and pump setting.
func DefaultChannel() Channel {
	return Channel{
		WidthUm:       30,
		HeightUm:      20,
		PoreLengthUm:  500,
		FlowRateUlMin: 0.08,
	}
}

// Validate checks the channel parameters.
func (c Channel) Validate() error {
	if c.WidthUm <= 0 || c.HeightUm <= 0 || c.PoreLengthUm <= 0 {
		return fmt.Errorf("microfluidic: non-positive channel dimensions %+v", c)
	}
	if c.FlowRateUlMin <= 0 {
		return fmt.Errorf("microfluidic: non-positive flow rate %v", c.FlowRateUlMin)
	}
	return nil
}

// VelocityUmS returns the mean fluid velocity in the pore in µm/s:
// Q / (W·H). At the default settings this is ≈ 2.2 mm/s, giving the ~20 ms
// transit over a 45 µm electrode span reported in §VII-A.
func (c Channel) VelocityUmS() float64 {
	area := c.WidthUm * c.HeightUm // µm²
	if area <= 0 {
		return 0
	}
	// 1 µL = 1e9 µm³; per minute → per second.
	return c.FlowRateUlMin * 1e9 / 60 / area
}

// Sample is a fluid sample characterized by per-type particle concentrations.
type Sample struct {
	// VolumeUl is the sample volume in µL (the paper draws < 10 µL).
	VolumeUl float64
	// ConcentrationPerUl maps particle type to particles per µL.
	ConcentrationPerUl map[Type]float64
}

// NewSample builds a sample, copying the concentration map so callers retain
// ownership of theirs.
func NewSample(volumeUl float64, conc map[Type]float64) Sample {
	c := make(map[Type]float64, len(conc))
	for k, v := range conc {
		if v > 0 {
			c[k] = v
		}
	}
	return Sample{VolumeUl: volumeUl, ConcentrationPerUl: c}
}

// Validate checks sample parameters.
func (s Sample) Validate() error {
	if s.VolumeUl <= 0 {
		return fmt.Errorf("microfluidic: non-positive sample volume %v", s.VolumeUl)
	}
	for t, c := range s.ConcentrationPerUl {
		if c < 0 {
			return fmt.Errorf("microfluidic: negative concentration %v for %v", c, t)
		}
	}
	return nil
}

// Mix combines two samples (e.g. the patient's blood and the cyto-coded
// password bead suspension, §V) and returns the pooled sample. Volumes add;
// concentrations are volume-weighted.
func Mix(a, b Sample) Sample {
	total := a.VolumeUl + b.VolumeUl
	if total <= 0 {
		return Sample{}
	}
	conc := make(map[Type]float64)
	for t, c := range a.ConcentrationPerUl {
		conc[t] += c * a.VolumeUl / total
	}
	for t, c := range b.ConcentrationPerUl {
		conc[t] += c * b.VolumeUl / total
	}
	return Sample{VolumeUl: total, ConcentrationPerUl: conc}
}

// Transit is one particle crossing of the sensing region.
type Transit struct {
	// Type is the particle population the crosser belongs to.
	Type Type
	// EntryS is the time (seconds from acquisition start) the particle
	// enters the sensing region.
	EntryS float64
	// VelocityUmS is the particle's speed through the pore. Individual
	// particles deviate a little from the mean fluid velocity because of
	// their radial position in the parabolic flow profile.
	VelocityUmS float64
	// SizeScale captures the particle's individual size relative to its
	// population nominal (real cells and beads have ~10% size spread);
	// it scales the impedance drop. Zero is treated as 1 (nominal).
	SizeScale float64
}

// EffectiveSizeScale returns SizeScale with the zero value mapped to 1.
func (t Transit) EffectiveSizeScale() float64 {
	if t.SizeScale <= 0 {
		return 1
	}
	return t.SizeScale
}

// LossModel aggregates the §VII-B particle loss mechanisms: beads sinking to
// the bottom of the inlet well over time, and beads adsorbing to the channel
// walls. Both cause the measured counts of Figs. 12/13 to fall below the
// estimated counts, increasingly so at longer runtimes.
type LossModel struct {
	// Disabled turns all losses off (ideal transport), useful for
	// encryption-roundtrip tests where exact counts matter.
	Disabled bool
	// SedimentationScale multiplies every type's SettlingRate; 1 is the
	// calibrated default.
	SedimentationScale float64
	// AdsorptionScale multiplies every type's AdsorptionFraction.
	AdsorptionScale float64
}

// DefaultLossModel returns the calibrated loss model.
func DefaultLossModel() LossModel {
	return LossModel{SedimentationScale: 1, AdsorptionScale: 1}
}

// efficiency returns the fraction of the nominal arrival rate that survives
// to the sensor at time t (seconds) for the given particle type.
func (l LossModel) efficiency(p Properties, tS float64) float64 {
	if l.Disabled {
		return 1
	}
	sed := math.Exp(-p.SettlingRate * l.SedimentationScale * tS / 3600)
	ads := 1 - p.AdsorptionFraction*l.AdsorptionScale
	if ads < 0 {
		ads = 0
	}
	return sed * ads
}

// GenerateConfig bundles the inputs to transit generation.
type GenerateConfig struct {
	Channel Channel
	Sample  Sample
	// DurationS is the acquisition length in seconds.
	DurationS float64
	Loss      LossModel
	// VelocityJitter is the relative standard deviation of per-particle
	// velocity around the mean (parabolic-profile spread). Default 0.08.
	VelocityJitter float64
	// SizeJitter is the relative standard deviation of per-particle
	// size (amplitude) around the population nominal. Default 0.10.
	SizeJitter float64
}

// GenerateTransits simulates particle arrivals at the sensing region over
// the acquisition window as a thinned Poisson process per particle type:
// base rate = concentration × flow rate, thinned by the time-dependent loss
// efficiency. The returned transits are sorted by entry time.
//
// The particle stream is physics, not key material: GenerateTransits takes
// one 32-byte draw from rng and seeds a ChaCha8 stream with it, so the
// capture's length and sample never change how far rng advances.
func GenerateTransits(cfg GenerateConfig, rng *drbg.DRBG) ([]Transit, error) {
	if err := cfg.Channel.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Sample.Validate(); err != nil {
		return nil, err
	}
	if cfg.DurationS <= 0 {
		return nil, fmt.Errorf("microfluidic: non-positive duration %v", cfg.DurationS)
	}
	if rng == nil {
		return nil, fmt.Errorf("microfluidic: nil rng")
	}
	var seed [32]byte
	if err := rng.Generate(seed[:]); err != nil {
		return nil, fmt.Errorf("microfluidic: seeding the particle stream: %w", err)
	}
	var src rand.ChaCha8
	src.Seed(seed)
	r := rand.New(&src)
	jitter := cfg.VelocityJitter
	if jitter == 0 {
		jitter = 0.08
	}
	sizeJitter := cfg.SizeJitter
	if sizeJitter == 0 {
		sizeJitter = 0.10
	}
	meanV := cfg.Channel.VelocityUmS()

	flowPerSec := cfg.Channel.FlowRateUlMin / 60 // µL/s
	// Stable iteration order over the concentration map keeps generation
	// deterministic for a fixed seed. The type count is tiny (the enum has
	// NumTypes members), so an insertion sort over a stack buffer replaces
	// the closure-allocating sort.Slice of the original.
	var typesBuf [NumTypes + 1]Type
	types := typesBuf[:0]
	for t := range cfg.Sample.ConcentrationPerUl {
		types = append(types, t)
	}
	for i := 1; i < len(types); i++ {
		for j := i; j > 0 && types[j] < types[j-1]; j-- {
			types[j], types[j-1] = types[j-1], types[j]
		}
	}

	// Pre-size the transit slice from the expected arrival count (rate ×
	// window, before thinning) plus CLT headroom, so the append loop almost
	// never regrows. Exact length is set by the draws themselves.
	expected := 0.0
	for _, t := range types {
		if conc := cfg.Sample.ConcentrationPerUl[t]; conc > 0 {
			expected += conc * flowPerSec * cfg.DurationS
		}
	}
	transits := make([]Transit, 0, int(expected+4*math.Sqrt(expected))+16)

	for _, t := range types {
		conc := cfg.Sample.ConcentrationPerUl[t]
		if conc <= 0 {
			continue
		}
		props := PropertiesOf(t)
		baseRate := conc * flowPerSec // particles per second entering pore
		if baseRate <= 0 {
			continue
		}
		// Poisson thinning: draw from the homogeneous process at the
		// base rate, keep each arrival with probability efficiency(t).
		tNow := 0.0
		for {
			tNow += r.ExpFloat64() / baseRate
			if tNow >= cfg.DurationS {
				break
			}
			if r.Float64() > cfg.Loss.efficiency(props, tNow) {
				continue
			}
			v := meanV * (1 + jitter*r.NormFloat64())
			if v < meanV*0.2 {
				v = meanV * 0.2
			}
			size := 1 + sizeJitter*r.NormFloat64()
			if size < 0.7 {
				size = 0.7
			}
			if size > 1.4 {
				size = 1.4
			}
			transits = append(transits, Transit{
				Type: t, EntryS: tNow, VelocityUmS: v, SizeScale: size,
			})
		}
	}
	// slices.SortFunc rather than sort.Sort, whose interface argument
	// escapes to the heap. Entry times are distinct float64 draws, so an
	// unstable sort still gives one order.
	slices.SortFunc(transits, func(a, b Transit) int { return cmp.Compare(a.EntryS, b.EntryS) })
	return transits, nil
}
