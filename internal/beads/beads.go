// Package beads implements MedSen's cyto-coded passwords (§V, §VI-B,
// §VII-C): patient identifiers encoded as mixtures of synthetic micro-beads
// at secret concentrations, stirred into the blood sample before it enters
// the sensor.
//
// In the paper's analogy, "the number of password characters would
// correspond to the number of bead types involved, and specific character
// value within the password would correspond to the number (concentration)
// of beads of a particular type." The alphabet below quantizes each bead
// type's concentration into distinguishable levels; level spacing grows with
// concentration because measured counts get noisier at higher concentrations
// (§VII-C: "low bead concentrations have less variance and improved
// resolution compared with higher concentrations").
package beads

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"medsen/internal/drbg"
	"medsen/internal/microfluidic"
)

// Identifier is one cyto-coded password: bead type → concentration level
// index (1-based; a type may be absent). It carries no biometric
// information.
type Identifier map[microfluidic.Type]int

// String renders the identifier deterministically (for logging and map
// keys), e.g. "bead-3.58um:L3+bead-7.8um:L1".
func (id Identifier) String() string {
	types := make([]microfluidic.Type, 0, len(id))
	for t, lv := range id {
		if lv > 0 {
			types = append(types, t)
		}
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	parts := make([]string, 0, len(types))
	for _, t := range types {
		parts = append(parts, fmt.Sprintf("%v:L%d", t, id[t]))
	}
	if len(parts) == 0 {
		return "<empty>"
	}
	return strings.Join(parts, "+")
}

// Equal reports whether two identifiers encode the same password (absent
// types and level-0 entries are equivalent).
func (id Identifier) Equal(other Identifier) bool {
	for t, lv := range id {
		if lv > 0 && other[t] != lv {
			return false
		}
	}
	for t, lv := range other {
		if lv > 0 && id[t] != lv {
			return false
		}
	}
	return true
}

// Alphabet fixes the bead types and quantized concentration levels the
// password scheme draws from, together with the standard mixing protocol
// (bead pipette volume : blood volume) that dilutes the pipette
// concentrations before the sensor sees them.
type Alphabet struct {
	// Types are the usable bead populations (never blood cells).
	Types []microfluidic.Type
	// LevelsPerUl maps level index-1 to beads/µL *in the pipette*;
	// LevelsPerUl[0] is level 1. Level 0 always means "type absent".
	// Spacing is geometric: measured-concentration error is
	// multiplicative, so equal log-gaps give equal mis-level risk —
	// and, as §VII-C observes, the *absolute* resolution is finest at
	// low concentrations.
	LevelsPerUl []float64
	// PipetteVolumeUl and BloodVolumeUl fix the standard mixing
	// protocol; the sensor measures bead concentrations diluted by
	// DilutionFactor().
	PipetteVolumeUl float64
	BloodVolumeUl   float64
	// MeasurementCV is the relative standard deviation of a recovered
	// concentration beyond Poisson noise (transport losses, classifier
	// error). Used for collision-risk analysis.
	MeasurementCV float64
}

// DefaultAlphabet returns the paper's two bead types with five geometrically
// spaced concentration levels each (ratio ≈ 1.9, so neighbouring levels sit
// several measurement sigmas apart in a standard counting window) and the
// standard 2 µL pipette : 8 µL blood protocol.
func DefaultAlphabet() Alphabet {
	return Alphabet{
		Types:           []microfluidic.Type{microfluidic.TypeBead358, microfluidic.TypeBead780},
		LevelsPerUl:     []float64{500, 950, 1800, 3400, 6500},
		PipetteVolumeUl: 2,
		BloodVolumeUl:   8,
		MeasurementCV:   0.07,
	}
}

// DilutionFactor returns the pipette→mixture concentration ratio of the
// standard protocol.
func (a Alphabet) DilutionFactor() float64 {
	if a.PipetteVolumeUl <= 0 {
		return 1
	}
	return (a.PipetteVolumeUl + a.BloodVolumeUl) / a.PipetteVolumeUl
}

// MixedSample mixes the identifier's bead pipette with a blood sample under
// the standard protocol volumes (§II: the blood sample "is mixed with a
// user-specific number of artificial beads before passing through the
// MedSen's sensor"). The blood sample is rescaled to the protocol's blood
// volume.
func (a Alphabet) MixedSample(id Identifier, blood microfluidic.Sample) (microfluidic.Sample, error) {
	pipette, err := a.SampleFor(id, a.PipetteVolumeUl)
	if err != nil {
		return microfluidic.Sample{}, err
	}
	if err := blood.Validate(); err != nil {
		return microfluidic.Sample{}, err
	}
	bloodAliquot := microfluidic.NewSample(a.BloodVolumeUl, blood.ConcentrationPerUl)
	return microfluidic.Mix(bloodAliquot, pipette), nil
}

// Validate checks the alphabet's internal consistency.
func (a Alphabet) Validate() error {
	if len(a.Types) == 0 {
		return errors.New("beads: alphabet needs at least one bead type")
	}
	seen := map[microfluidic.Type]bool{}
	for _, t := range a.Types {
		if t == microfluidic.TypeBloodCell {
			return errors.New("beads: blood cells cannot encode a password")
		}
		if seen[t] {
			return fmt.Errorf("beads: duplicate type %v", t)
		}
		seen[t] = true
	}
	if len(a.LevelsPerUl) == 0 {
		return errors.New("beads: alphabet needs at least one level")
	}
	prev := 0.0
	for i, c := range a.LevelsPerUl {
		if c <= prev {
			return fmt.Errorf("beads: level %d (%v/µL) not above level %d (%v/µL)",
				i+1, c, i, prev)
		}
		prev = c
	}
	if a.MeasurementCV < 0 || a.MeasurementCV >= 1 {
		return fmt.Errorf("beads: MeasurementCV %v out of [0,1)", a.MeasurementCV)
	}
	if a.PipetteVolumeUl < 0 || a.BloodVolumeUl < 0 {
		return fmt.Errorf("beads: negative protocol volumes %v/%v", a.PipetteVolumeUl, a.BloodVolumeUl)
	}
	return nil
}

// PasswordSpaceSize returns the number of distinct identifiers the alphabet
// can encode: (levels+1)^types − 1 (each type absent or at one of the
// levels; the all-absent word is excluded).
func (a Alphabet) PasswordSpaceSize() int {
	size := 1
	for range a.Types {
		size *= len(a.LevelsPerUl) + 1
	}
	return size - 1
}

// EntropyBits returns the password-space entropy in bits.
func (a Alphabet) EntropyBits() float64 {
	return math.Log2(float64(a.PasswordSpaceSize()))
}

// NewIdentifier draws a uniformly random non-empty identifier.
func (a Alphabet) NewIdentifier(rng *drbg.DRBG) (Identifier, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("beads: nil rng")
	}
	for {
		id := make(Identifier, len(a.Types))
		nonEmpty := false
		for _, t := range a.Types {
			lv := rng.Intn(len(a.LevelsPerUl) + 1)
			if lv > 0 {
				id[t] = lv
				nonEmpty = true
			}
		}
		if nonEmpty {
			return id, nil
		}
	}
}

// ConcentrationOf returns the beads/µL the identifier prescribes for a type
// (0 when absent).
func (a Alphabet) ConcentrationOf(id Identifier, t microfluidic.Type) (float64, error) {
	lv := id[t]
	if lv == 0 {
		return 0, nil
	}
	if lv < 0 || lv > len(a.LevelsPerUl) {
		return 0, fmt.Errorf("beads: identifier level %d out of range for %v", lv, t)
	}
	return a.LevelsPerUl[lv-1], nil
}

// SampleFor prepares the bead suspension realizing the identifier — the
// content of one pre-loaded mini-pipette (§V: "A set of miniaturized
// micro-pipettes purchased by the same user would embed the same
// identifier").
func (a Alphabet) SampleFor(id Identifier, volumeUl float64) (microfluidic.Sample, error) {
	if err := a.Validate(); err != nil {
		return microfluidic.Sample{}, err
	}
	if volumeUl <= 0 {
		return microfluidic.Sample{}, fmt.Errorf("beads: non-positive volume %v", volumeUl)
	}
	conc := make(map[microfluidic.Type]float64, len(id))
	for _, t := range a.Types {
		c, err := a.ConcentrationOf(id, t)
		if err != nil {
			return microfluidic.Sample{}, err
		}
		if c > 0 {
			conc[t] = c
		}
	}
	if len(conc) == 0 {
		return microfluidic.Sample{}, errors.New("beads: empty identifier")
	}
	return microfluidic.NewSample(volumeUl, conc), nil
}

// ClassifyConcentration maps a measured concentration (beads/µL recovered
// from counted peaks over the sampled volume) to the nearest level, with 0
// meaning "absent". The decision boundaries are the geometric midpoints
// between adjacent levels, matching the multiplicative error model.
func (a Alphabet) ClassifyConcentration(measuredPerUl float64) int {
	if len(a.LevelsPerUl) == 0 {
		return 0
	}
	// Absent/level-1 boundary: half the lowest level.
	if measuredPerUl < a.LevelsPerUl[0]/2 {
		return 0
	}
	best, bestDist := 1, math.Inf(1)
	for i, c := range a.LevelsPerUl {
		d := math.Abs(math.Log(measuredPerUl) - math.Log(c))
		if d < bestDist {
			best, bestDist = i+1, d
		}
	}
	return best
}

// RecoverIdentifier reconstructs the identifier from measured per-type
// concentrations.
func (a Alphabet) RecoverIdentifier(measuredPerUl map[microfluidic.Type]float64) Identifier {
	id := make(Identifier, len(a.Types))
	for _, t := range a.Types {
		if lv := a.ClassifyConcentration(measuredPerUl[t]); lv > 0 {
			id[t] = lv
		}
	}
	return id
}

// CollisionRisk estimates the probability that a single measured bead-type
// concentration at the given level is classified as a *different* level,
// under the alphabet's error model: relative σ = CV ⊕ Poisson(count) noise.
// expectedCount is the number of beads of the type expected in the counting
// window; larger windows shrink the Poisson term.
func (a Alphabet) CollisionRisk(level int, expectedCount float64) (float64, error) {
	if level < 1 || level > len(a.LevelsPerUl) {
		return 0, fmt.Errorf("beads: level %d out of range", level)
	}
	if expectedCount <= 0 {
		return 1, nil
	}
	conc := a.LevelsPerUl[level-1]
	relSigma := math.Sqrt(a.MeasurementCV*a.MeasurementCV + 1/expectedCount)
	// Log-domain sigma ≈ relative sigma for small values.
	lo, hi := math.Inf(-1), math.Inf(1)
	if level > 1 {
		lo = math.Sqrt(a.LevelsPerUl[level-2] * conc) // geometric midpoint
	} else {
		lo = conc / 2
	}
	if level < len(a.LevelsPerUl) {
		hi = math.Sqrt(a.LevelsPerUl[level] * conc)
	}
	pLow := 0.0
	if !math.IsInf(lo, -1) {
		z := (math.Log(conc) - math.Log(lo)) / relSigma
		pLow = gaussTail(z)
	}
	pHigh := 0.0
	if !math.IsInf(hi, 1) {
		z := (math.Log(hi) - math.Log(conc)) / relSigma
		pHigh = gaussTail(z)
	}
	return pLow + pHigh, nil
}

// gaussTail returns P(Z > z) for standard normal Z.
func gaussTail(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// MarshalJSON encodes the identifier as a {"type-name": level} object — the
// cloud API's wire format.
func (id Identifier) MarshalJSON() ([]byte, error) {
	wire := make(map[string]int, len(id))
	for t, lv := range id {
		if lv > 0 {
			wire[t.String()] = lv
		}
	}
	return json.Marshal(wire)
}

// UnmarshalJSON decodes the wire format, rejecting unknown particle names.
func (id *Identifier) UnmarshalJSON(data []byte) error {
	var wire map[string]int
	if err := json.Unmarshal(data, &wire); err != nil {
		return fmt.Errorf("beads: decoding identifier: %w", err)
	}
	out := make(Identifier, len(wire))
	for name, lv := range wire {
		t, err := microfluidic.TypeFromName(name)
		if err != nil {
			return err
		}
		out[t] = lv
	}
	*id = out
	return nil
}
