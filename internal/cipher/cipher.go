// Package cipher implements MedSen's sensor-level analog signal encryption
// (§IV). The cipher is not a transformation applied to digitized data: it is
// a *configuration schedule* for the bio-sensor. Each key epoch selects
//
//	K(t) = (E(t), G(t), S(t))
//
// — the set of active output electrodes, the per-electrode output gains and
// the channel flow speed. Under a given epoch key, one particle produces
// PeaksPerParticle(E) voltage drops whose amplitudes are scaled by G and
// whose widths are stretched by 1/S, so an untrusted analyst can count and
// characterize peaks but cannot recover the true particle count, amplitude
// or width without the schedule.
//
// The package also implements the controller-side decryption of §IV-A: peak
// de-multiplication per epoch, per-peak gain removal, and width un-scaling,
// plus the key-length accounting of Eq. 2.
package cipher

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"medsen/internal/drbg"
	"medsen/internal/electrode"
	"medsen/internal/sigproc"
)

// Params fixes the cipher's quantization and scheduling choices (§VI-B).
type Params struct {
	// NumElectrodes is the number of independently keyable output
	// electrodes (16 in the Eq. 2 sizing example, 9 in the fabricated
	// device).
	NumElectrodes int
	// GainLevels is the number of quantized gain values (16 in the
	// paper, i.e. 4 bits of resolution).
	GainLevels int
	// GainMin and GainMax bound the randomized per-electrode gain. The
	// paper chooses the range so any peak can be masqueraded across the
	// ~4× amplitude spread between particle types.
	GainMin, GainMax float64
	// SpeedLevels is the number of quantized flow-speed values (16).
	SpeedLevels int
	// SpeedMin and SpeedMax bound the flow-speed factor relative to the
	// nominal pump rate.
	SpeedMin, SpeedMax float64
	// EpochS is the key renewal period in seconds: MedSen's practical
	// scheme changes (E, G, S) every epoch rather than per cell (§IV-A).
	EpochS float64
	// MinActive is the minimum number of active electrodes per epoch
	// (at least 1, or no signal reaches the analyst at all).
	MinActive int
	// NominalVelocityUmS is the calibrated particle velocity through the
	// sensing region at unit flow-speed factor (≈ 2200 µm/s for the
	// paper's 0.08 µL/min pump setting). The controller needs it to
	// group ciphertext peaks into per-particle windows during
	// decryption.
	NominalVelocityUmS float64
	// AvoidAdjacent, when set, rejects epoch keys that activate
	// consecutive electrodes — the §VII-A hardening against the flat
	// 17-peak train of Fig. 11d.
	AvoidAdjacent bool
}

// DefaultParams returns the paper's sizing: 16 electrodes, 16 gain levels,
// 16 speed levels, 1-second epochs.
func DefaultParams() Params {
	return Params{
		NumElectrodes:      16,
		GainLevels:         16,
		GainMin:            0.5,
		GainMax:            2.0,
		SpeedLevels:        16,
		SpeedMin:           0.6,
		SpeedMax:           1.4,
		EpochS:             1.0,
		MinActive:          1,
		NominalVelocityUmS: 2200,
	}
}

// ParamsForArray returns DefaultParams sized to key exactly the given number
// of output electrodes (the sensor requires the keyed width to match its
// array).
func ParamsForArray(numOutputs int) Params {
	p := DefaultParams()
	p.NumElectrodes = numOutputs
	return p
}

// Validate checks parameter consistency.
func (p Params) Validate() error {
	if p.NumElectrodes < 1 {
		return fmt.Errorf("cipher: NumElectrodes %d < 1", p.NumElectrodes)
	}
	if p.GainLevels < 2 {
		return fmt.Errorf("cipher: GainLevels %d < 2", p.GainLevels)
	}
	if p.GainLevels > 256 || p.SpeedLevels > 256 {
		return errors.New("cipher: gain/speed levels must fit one byte")
	}
	if !(p.GainMin > 0) || p.GainMax <= p.GainMin {
		return fmt.Errorf("cipher: invalid gain range [%v, %v]", p.GainMin, p.GainMax)
	}
	if p.SpeedLevels < 2 {
		return fmt.Errorf("cipher: SpeedLevels %d < 2", p.SpeedLevels)
	}
	if !(p.SpeedMin > 0) || p.SpeedMax <= p.SpeedMin {
		return fmt.Errorf("cipher: invalid speed range [%v, %v]", p.SpeedMin, p.SpeedMax)
	}
	if p.EpochS <= 0 {
		return fmt.Errorf("cipher: EpochS %v <= 0", p.EpochS)
	}
	if p.MinActive < 1 || p.MinActive > p.NumElectrodes {
		return fmt.Errorf("cipher: MinActive %d out of [1, %d]", p.MinActive, p.NumElectrodes)
	}
	if !(p.NominalVelocityUmS > 0) {
		return fmt.Errorf("cipher: NominalVelocityUmS %v must be positive", p.NominalVelocityUmS)
	}
	if p.AvoidAdjacent && p.MinActive > (p.NumElectrodes+1)/2 {
		return fmt.Errorf("cipher: MinActive %d impossible without adjacency on %d electrodes",
			p.MinActive, p.NumElectrodes)
	}
	return nil
}

// GainBits returns the bit resolution of the gain quantization (Rgain).
func (p Params) GainBits() int { return bitsFor(p.GainLevels) }

// SpeedBits returns the bit resolution of the flow-speed quantization (Rflow).
func (p Params) SpeedBits() int { return bitsFor(p.SpeedLevels) }

func bitsFor(levels int) int {
	bits := 0
	for v := levels - 1; v > 0; v >>= 1 {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	return bits
}

// GainAt materializes the gain value for a quantization level.
func (p Params) GainAt(level uint8) float64 {
	if p.GainLevels < 2 {
		return p.GainMin
	}
	return p.GainMin + float64(level)*(p.GainMax-p.GainMin)/float64(p.GainLevels-1)
}

// SpeedAt materializes the flow-speed factor for a quantization level.
func (p Params) SpeedAt(level uint8) float64 {
	if p.SpeedLevels < 2 {
		return p.SpeedMin
	}
	return p.SpeedMin + float64(level)*(p.SpeedMax-p.SpeedMin)/float64(p.SpeedLevels-1)
}

// IdealKeyLengthBits implements Eq. 2: the key length for the ideal
// per-cell keying scheme,
//
//	L = Ncells × (Nelec + Nelec/2 × Rgain + Rflow).
//
// The paper's example — 20 000 cells, 16 electrodes, 4-bit gains, 4-bit
// speeds — yields 1 048 000 bits ≈ 0.12 MB.
func IdealKeyLengthBits(nCells, nElectrodes, gainBits, flowBits int) int {
	return nCells * (nElectrodes + nElectrodes/2*gainBits + flowBits)
}

// EpochKey is the key material for one epoch, stored in quantized form so
// serialization is exact.
type EpochKey struct {
	// Active is the electrode on/off vector E(t).
	Active []bool
	// GainLevel holds the quantized per-electrode gain levels G(t).
	GainLevel []uint8
	// SpeedLevel is the quantized flow-speed level S(t).
	SpeedLevel uint8
}

// Schedule is a complete key schedule for one acquisition. It is the secret
// that never leaves the controller (§VI-B).
type Schedule struct {
	Params Params
	// DurationS is the acquisition window the schedule covers.
	DurationS float64
	Epochs    []EpochKey
}

// Generate draws a fresh key schedule covering durationS seconds from the
// controller's entropy source.
func Generate(p Params, durationS float64, rng *drbg.DRBG) (*Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if durationS <= 0 {
		return nil, fmt.Errorf("cipher: non-positive duration %v", durationS)
	}
	if rng == nil {
		return nil, errors.New("cipher: nil rng")
	}
	nEpochs := int(math.Ceil(durationS / p.EpochS))
	s := &Schedule{Params: p, DurationS: durationS, Epochs: make([]EpochKey, nEpochs)}
	for i := range s.Epochs {
		s.Epochs[i] = generateEpoch(p, rng)
	}
	return s, nil
}

func generateEpoch(p Params, rng *drbg.DRBG) EpochKey {
	k := EpochKey{
		Active:     make([]bool, p.NumElectrodes),
		GainLevel:  make([]uint8, p.NumElectrodes),
		SpeedLevel: uint8(rng.Intn(p.SpeedLevels)),
	}
	for {
		nActive := 0
		prev := false
		valid := true
		for i := range k.Active {
			on := rng.Bool()
			if p.AvoidAdjacent && on && prev {
				on = false
			}
			k.Active[i] = on
			if on {
				nActive++
			}
			prev = on
		}
		if nActive < p.MinActive {
			valid = false
		}
		if valid {
			break
		}
	}
	for i := range k.GainLevel {
		k.GainLevel[i] = uint8(rng.Intn(p.GainLevels))
	}
	return k
}

// EpochIndexAt returns the epoch index covering time t (clamped into range).
func (s *Schedule) EpochIndexAt(tS float64) int {
	if len(s.Epochs) == 0 {
		return -1
	}
	idx := int(tS / s.Params.EpochS)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.Epochs) {
		idx = len(s.Epochs) - 1
	}
	return idx
}

// KeyAt returns the epoch key covering time t.
func (s *Schedule) KeyAt(tS float64) EpochKey {
	return s.Epochs[s.EpochIndexAt(tS)]
}

// SpeedAt materializes the flow-speed factor at time t.
func (s *Schedule) SpeedAt(tS float64) float64 {
	return s.Params.SpeedAt(s.KeyAt(tS).SpeedLevel)
}

// ScheduleBits returns the size of this practical epoch-keyed schedule in
// bits: per epoch, the electrode mask plus one gain level per electrode plus
// the speed level.
func (s *Schedule) ScheduleBits() int {
	perEpoch := s.Params.NumElectrodes +
		s.Params.NumElectrodes*s.Params.GainBits() +
		s.Params.SpeedBits()
	return perEpoch * len(s.Epochs)
}

// ParticleEstimate is one decrypted particle observation: the controller's
// reconstruction of the true measurement the sensor would have produced with
// a single unit-gain electrode at nominal flow.
type ParticleEstimate struct {
	// TimeS is the particle's passage time.
	TimeS float64
	// Amplitude is the recovered true fractional impedance drop.
	Amplitude float64
	// WidthS is the recovered true transit width at nominal flow speed.
	WidthS float64
}

// Decrypted is the controller-side decryption result.
type Decrypted struct {
	// Count is the recovered true particle count.
	Count int
	// Particles holds per-particle estimates for peak groups that could
	// be unambiguously resolved (used for bead classification and the
	// ciphertext integrity check). May be shorter than Count under heavy
	// coincidence.
	Particles []ParticleEstimate
}

// Decrypt recovers the true particle count and per-particle features from
// the analyst's peak report (§IV-A: "The decryption requires light
// computation (multiplications and divisions)").
//
// The count recovery exploits that the sensor keys each *gap crossing* by
// the key in force at the crossing time (the multiplexer switches in real
// time): every ciphertext peak observed at time t under a key with
// multiplication factor m(t) represents exactly 1/m(t) of one particle, so
// the true count is Σ 1/m(tᵢ) over all peaks — simple divisions, as §IV-A
// promises. Peaks falling in epochs where no electrode of the array was
// listening are noise and are discarded.
//
// For feature recovery, peaks are additionally grouped into per-particle
// windows (anchored at a group's first peak, spanning the active-crossing
// template at the epoch's flow speed with velocity-jitter margin). A window
// holding exactly the expected number of peaks is resolved into a
// ParticleEstimate by removing each peak's electrode gain (peaks arrive in
// electrode-geometry order) and un-stretching widths by the epoch flow
// speed.
func (s *Schedule) Decrypt(peaks []sigproc.Peak, arr electrode.Array) (Decrypted, error) {
	if arr.NumOutputs > s.Params.NumElectrodes {
		return Decrypted{}, fmt.Errorf("cipher: array has %d outputs but schedule keys %d electrodes",
			arr.NumOutputs, s.Params.NumElectrodes)
	}
	sorted := append([]sigproc.Peak(nil), peaks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })

	var out Decrypted
	countF := 0.0
	for _, p := range sorted {
		if factor := arr.PeaksPerParticle(s.KeyAt(p.Time).Active); factor > 0 {
			countF += 1 / float64(factor)
		}
	}
	out.Count = int(math.Round(countF))

	// Resolution pass: window-grouped feature recovery. The crossing set is
	// rebuilt for each group's epoch key into one recycled scratch slice
	// instead of a fresh allocation per group.
	var crossScratch []electrode.Crossing
	for i := 0; i < len(sorted); {
		key := s.KeyAt(sorted[i].Time)
		crossScratch = arr.AppendCrossings(crossScratch[:0], key.Active)
		crossings := crossScratch
		if len(crossings) == 0 {
			i++ // noise in a silent epoch
			continue
		}
		speed := s.Params.SpeedAt(key.SpeedLevel)
		v := s.Params.NominalVelocityUmS * speed
		// Window span: template length at the epoch speed, padded for
		// per-particle velocity spread and detection jitter.
		span := (crossings[len(crossings)-1].OffsetUm-crossings[0].OffsetUm)/v*1.4 + 0.03
		j := i
		for j < len(sorted) && sorted[j].Time-sorted[i].Time <= span {
			j++
		}
		if j-i == len(crossings) {
			est := ParticleEstimate{TimeS: sorted[i].Time}
			sumAmp, sumWidth := 0.0, 0.0
			for k, c := range crossings {
				gain := s.Params.GainAt(key.GainLevel[c.Electrode])
				sumAmp += sorted[i+k].Amplitude / gain
				sumWidth += sorted[i+k].Width * speed
			}
			est.Amplitude = sumAmp / float64(len(crossings))
			est.WidthS = sumWidth / float64(len(crossings))
			out.Particles = append(out.Particles, est)
		}
		i = j
	}
	return out, nil
}

// Zero wipes the schedule's key material in place (§VI-B hygiene: "The
// encryption keys always remain on the controller"; once an acquisition is
// decrypted and verified, the schedule should not outlive its use). The
// controller wipes each diagnostic's schedule this way when the diagnostic
// ends. The schedule is unusable afterwards.
func (s *Schedule) Zero() {
	for i := range s.Epochs {
		for j := range s.Epochs[i].Active {
			s.Epochs[i].Active[j] = false
		}
		for j := range s.Epochs[i].GainLevel {
			s.Epochs[i].GainLevel[j] = 0
		}
		s.Epochs[i].SpeedLevel = 0
	}
	s.Epochs = s.Epochs[:0]
	s.DurationS = 0
}
