// Package sensor integrates the MedSen bio-sensor (Fig. 4): the microfluidic
// channel delivering particles, the multi-output electrode array, the 16:2
// analog multiplexer that routes the key-selected outputs to the lock-in
// amplifier (and grounds the rest to prevent interference, §VII-A), and the
// multi-carrier acquisition chain.
//
// The sensor is the heart of MedSen's trusted computing base: encryption
// happens *here*, by configuration — the acquisition it emits is already
// ciphertext. The ground-truth transit list is retained in the result for
// experiment validation only and corresponds to information that physically
// never leaves the device.
package sensor

import (
	"errors"
	"fmt"

	"medsen/internal/cipher"
	"medsen/internal/drbg"
	"medsen/internal/electrode"
	"medsen/internal/lockin"
	"medsen/internal/microfluidic"
)

// Sensor is a fabricated MedSen device: fixed geometry, carriers and
// acquisition chain.
type Sensor struct {
	// Array is the electrode geometry (2–16 outputs; Fig. 5).
	Array electrode.Array
	// Channel is the microfluidic channel and pump configuration.
	Channel microfluidic.Channel
	// CarriersHz is the excitation carrier set.
	CarriersHz []float64
	// Lockin is the acquisition-chain configuration.
	Lockin lockin.Config
	// Loss models particle transport losses.
	Loss microfluidic.LossModel
}

// New assembles a sensor from parts, validating each.
func New(arr electrode.Array, ch microfluidic.Channel, carriersHz []float64, lk lockin.Config) (*Sensor, error) {
	if arr.NumOutputs < 1 {
		return nil, fmt.Errorf("sensor: invalid array %+v", arr)
	}
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	if len(carriersHz) == 0 {
		return nil, errors.New("sensor: no excitation carriers")
	}
	for _, f := range carriersHz {
		if f <= 0 {
			return nil, fmt.Errorf("sensor: non-positive carrier %v", f)
		}
	}
	if err := lk.Validate(); err != nil {
		return nil, err
	}
	return &Sensor{
		Array:      arr,
		Channel:    ch,
		CarriersHz: append([]float64(nil), carriersHz...),
		Lockin:     lk,
		Loss:       microfluidic.DefaultLossModel(),
	}, nil
}

// DefaultPitchUm is the electrode pitch of the default simulated device.
// The fabricated prototype used a 25 µm pitch, which §VII-A identifies as a
// limitation (peaks of adjacent electrodes blur together at the 450 Hz
// output rate); the paper proposes "putting more space between the
// electrodes", which this wider revision implements.
const DefaultPitchUm = 50

// NewDefault returns the default simulated device: a 9-output array (the
// paper's largest fabricated design) at the hardened wider pitch, on the
// default channel, with the 8-carrier acquisition chain.
func NewDefault() *Sensor {
	arr, err := electrode.NewArrayWithPitch(9, DefaultPitchUm)
	if err != nil {
		panic(err) // statically valid configuration
	}
	// Confine the sensing zone so adjacent crossings (one pitch apart)
	// resolve into distinct peaks at the 450 Hz output rate.
	arr.SensingLengthUm = 32
	s, err := New(
		arr,
		microfluidic.DefaultChannel(),
		lockin.DefaultCarriersHz(),
		lockin.DefaultConfig(),
	)
	if err != nil {
		panic(err) // statically valid configuration
	}
	return s
}

// CipherParams returns cipher parameters sized and calibrated for this
// sensor: the keyed electrode count matches the array and the nominal
// velocity matches the pump setting.
func (s *Sensor) CipherParams() cipher.Params {
	p := cipher.ParamsForArray(s.Array.NumOutputs)
	p.NominalVelocityUmS = s.Channel.VelocityUmS()
	return p
}

// AcquireConfig describes one acquisition run.
type AcquireConfig struct {
	// Sample is the fluid fed to the inlet (blood, beads, or a mix).
	Sample microfluidic.Sample
	// DurationS is the acquisition window in seconds.
	DurationS float64
	// Schedule is the encryption key schedule. Nil runs the sensor in
	// plaintext mode — only the lead electrode active at unit gain and
	// nominal flow — the mode §V uses for server-side bead recognition.
	Schedule *cipher.Schedule
	// PerCell selects the §IV-A ideal one-time-pad scheme instead: each
	// successive particle consumes one key. Mutually exclusive with
	// Schedule. Particles beyond the prepared key count pass unobserved,
	// and coincident particles corrupt the sequence — the scheme's
	// documented failure modes.
	PerCell *cipher.PerCellSchedule
	// Workers caps the parallelism of the per-carrier render. 0 uses
	// GOMAXPROCS, 1 forces serial; every setting produces bitwise-
	// identical traces (each carrier's noise comes from its own seeded
	// stream, whichever worker draws it).
	Workers int
}

// Result is one completed acquisition.
type Result struct {
	// Acquisition is the (en- or unencrypted) multi-carrier capture that
	// leaves the sensor toward the phone.
	Acquisition lockin.Acquisition
	// Transits is the ground-truth particle stream. It never leaves the
	// physical device; experiments use it to validate recovery.
	Transits []microfluidic.Transit
}

// Acquire runs one acquisition: particles are generated by the channel
// model, expanded into voltage drops under the epoch key in force at their
// passage time, and rendered into the sampled multi-carrier ciphertext.
func (s *Sensor) Acquire(cfg AcquireConfig, rng *drbg.DRBG) (Result, error) {
	if rng == nil {
		return Result{}, errors.New("sensor: nil rng")
	}
	if cfg.DurationS <= 0 {
		return Result{}, fmt.Errorf("sensor: non-positive duration %v", cfg.DurationS)
	}
	if cfg.Schedule != nil && cfg.PerCell != nil {
		return Result{}, errors.New("sensor: Schedule and PerCell are mutually exclusive")
	}
	if cfg.Schedule != nil {
		if cfg.Schedule.DurationS < cfg.DurationS {
			return Result{}, fmt.Errorf("sensor: schedule covers %.3fs but acquisition needs %.3fs",
				cfg.Schedule.DurationS, cfg.DurationS)
		}
		if cfg.Schedule.Params.NumElectrodes != s.Array.NumOutputs {
			return Result{}, fmt.Errorf("sensor: schedule keys %d electrodes but array has %d outputs",
				cfg.Schedule.Params.NumElectrodes, s.Array.NumOutputs)
		}
	}
	if cfg.PerCell != nil && cfg.PerCell.Params.NumElectrodes != s.Array.NumOutputs {
		return Result{}, fmt.Errorf("sensor: per-cell schedule keys %d electrodes but array has %d outputs",
			cfg.PerCell.Params.NumElectrodes, s.Array.NumOutputs)
	}

	transits, err := microfluidic.GenerateTransits(microfluidic.GenerateConfig{
		Channel:   s.Channel,
		Sample:    cfg.Sample,
		DurationS: cfg.DurationS,
		Loss:      s.Loss,
	}, rng)
	if err != nil {
		return Result{}, err
	}

	// The gating decision (which crossings survive the key in force) and the
	// pulse timing are carrier-independent; only the amplitude varies with
	// the excitation frequency, and there through the particle type alone.
	// So: resolve each transit into gated crossing events once, hoist the
	// per-(type, carrier) amplitude out of the hot loop, and expand events
	// into exactly-sized per-carrier pulse lists afterwards.
	allCrossings := s.Array.Crossings(nil)
	var ampByType [microfluidic.NumTypes + 1][]float64
	for t := microfluidic.TypeBloodCell; t <= microfluidic.TypeBead780; t++ {
		amps := make([]float64, len(s.CarriersHz))
		props := microfluidic.PropertiesOf(t)
		for ci, freq := range s.CarriersHz {
			amps[ci] = props.AmplitudeAt(freq)
		}
		ampByType[t] = amps
	}
	type crossingEvent struct {
		crossT    float64
		gain      float64
		size      float64
		sigma     float64
		electrode int
		typ       microfluidic.Type
	}
	events := make([]crossingEvent, 0, len(transits)*len(allCrossings))
	for ti, tr := range transits {
		// Per-cell keying: the i-th particle consumes the i-th key; the
		// whole transit runs under it.
		var cellKey *cipher.EpochKey
		if cfg.PerCell != nil {
			key, ok := cfg.PerCell.KeyAtCell(ti)
			if !ok {
				continue // key material exhausted: unobserved
			}
			cellKey = &key
		}
		// Flow speed is set by the pump and changes with epoch; the
		// particle travels at the speed keyed at its entry (the pump
		// cannot re-accelerate the fluid column mid-transit).
		speed := 1.0
		if cfg.Schedule != nil {
			speed = cfg.Schedule.SpeedAt(tr.EntryS)
		}
		if cellKey != nil {
			speed = cfg.PerCell.Params.SpeedAt(cellKey.SpeedLevel)
		}
		v := tr.VelocityUmS * speed
		if v <= 0 {
			continue
		}
		size := tr.EffectiveSizeScale()
		sigma := s.Array.PulseSigmaS(v)

		for _, c := range allCrossings {
			// The multiplexer switches in real time: each crossing
			// is gated and gain-scaled by the key in force at the
			// moment the particle reaches that gap (§III-B).
			crossT := tr.EntryS + c.OffsetUm/v
			gain := 1.0
			switch {
			case cellKey != nil:
				if !cellKey.Active[c.Electrode] {
					continue
				}
				gain = cfg.PerCell.Params.GainAt(cellKey.GainLevel[c.Electrode])
			case cfg.Schedule != nil:
				key := cfg.Schedule.KeyAt(crossT)
				if !key.Active[c.Electrode] {
					continue
				}
				gain = cfg.Schedule.Params.GainAt(key.GainLevel[c.Electrode])
			case c.Electrode != 0:
				// Plaintext mode: only the lead electrode
				// listens, so each particle produces exactly
				// one peak.
				continue
			}
			events = append(events, crossingEvent{
				crossT:    crossT,
				gain:      gain,
				size:      size,
				sigma:     sigma,
				electrode: c.Electrode,
				typ:       tr.Type,
			})
		}
	}

	// Expand: one exactly-sized pulse list per carrier, in the same
	// (transit, crossing) order the fused loop produced. The amplitude is
	// computed with the multiplication order of the original expression
	// (AmplitudeAt(freq) * gain * size), so the traces stay bit-identical.
	pulsesByCarrier := make([][]electrode.Pulse, len(s.CarriersHz))
	for ci := range s.CarriersHz {
		pulses := make([]electrode.Pulse, len(events))
		for k, e := range events {
			pulses[k] = electrode.Pulse{
				TimeS:     e.crossT,
				Amplitude: ampByType[e.typ][ci] * e.gain * e.size,
				SigmaS:    e.sigma,
				Electrode: e.electrode,
				Particle:  e.typ,
			}
		}
		pulsesByCarrier[ci] = pulses
	}

	acq, err := lockin.RenderWorkers(s.CarriersHz, pulsesByCarrier, cfg.DurationS, s.Lockin, rng, cfg.Workers)
	if err != nil {
		return Result{}, err
	}
	return Result{Acquisition: acq, Transits: transits}, nil
}
