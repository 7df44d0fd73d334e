package main

import (
	"time"

	"medsen/internal/beads"
	"medsen/internal/cipher"
	"medsen/internal/cloud"
	"medsen/internal/csvio"
	"medsen/internal/drbg"
	"medsen/internal/lockin"
	"medsen/internal/microfluidic"
	"medsen/internal/sensor"
	"medsen/internal/sigproc"
)

// After the traced load, a few of the run's own inputs are replayed through
// the public stage functions, one timed call per stage. The load cannot
// attribute these stages from outside: they run inside a handler or inside
// RunDiagnostic.

// How many of a phase's first inputs the replay uses; the generators keep
// those payloads for it.
const (
	replaySpool  = 16
	replayDevice = 3
)

// stageTimes collects replay durations by metric name.
type stageTimes map[string][]time.Duration

// timed runs fn and files its duration under name.
func (st stageTimes) timed(name string, fn func()) {
	t0 := time.Now()
	fn()
	st[name] = append(st[name], time.Since(t0))
}

// replayCloud replays the cloud pipeline on one capture payload, then
// decrypts the resulting peaks under the key schedule sch.
func (st stageTimes) replayCloud(payload []byte, sch *cipher.Schedule, s *sensor.Sensor) error {
	cfg := cloud.DefaultAnalysisConfig()
	var acq lockin.Acquisition
	var err error
	st.timed("csvio.decode_ms", func() { acq, err = csvio.DecompressAcquisitionBuffer(payload, new(csvio.DecodeBuffer)) })
	if err != nil {
		return err
	}
	var rep cloud.Report
	st.timed("cloud.analyze_ms", func() { rep, err = cloud.Analyze(acq, cfg) })
	if err != nil {
		return err
	}
	// Detrend every carrier serially: the CPU work cloud.Analyze spreads
	// over its workers.
	flats := make([]sigproc.Trace, len(acq.Traces))
	st.timed("sigproc.detrend_ms", func() {
		for i, tr := range acq.Traces {
			if flats[i], err = sigproc.DetrendWorkers(tr, cfg.Detrend, 1); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	ref := 0
	for i, f := range acq.CarriersHz {
		if f == cfg.ReferenceCarrierHz {
			ref = i
		}
	}
	st.timed("sigproc.peaks_ms", func() { sigproc.DetectPeaks(flats[ref], cfg.Peaks) })
	st.timed("cipher.decrypt_ms", func() { _, err = sch.Decrypt(rep.SigprocPeaks(), s.Array) })
	return err
}

// replayAcquire replays the device stages for an acquisition of durationS
// of the given sample from seed: key schedule, particle transits and the
// full sensor acquisition.
func (st stageTimes) replayAcquire(seed uint64, sample microfluidic.Sample, durationS float64) (*sensor.Sensor, *cipher.Schedule, lockin.Acquisition, error) {
	s := sensor.NewDefault()
	rng := drbg.NewFromSeed(seed)
	var sch *cipher.Schedule
	var err error
	st.timed("cipher.generate_ms", func() { sch, err = cipher.Generate(deviceParams(s), durationS, rng) })
	if err != nil {
		return nil, nil, lockin.Acquisition{}, err
	}
	// Transits are drawn from their own stream so the acquisition below
	// sees the generator state a real run would.
	st.timed("microfluidic.transits_ms", func() {
		_, err = microfluidic.GenerateTransits(microfluidic.GenerateConfig{
			Channel: s.Channel, Sample: sample, DurationS: durationS, Loss: s.Loss,
		}, drbg.NewFromSeed(mix(seed, 1)))
	})
	if err != nil {
		return nil, nil, lockin.Acquisition{}, err
	}
	var res sensor.Result
	st.timed("sensor.acquire_ms", func() {
		res, err = s.Acquire(sensor.AcquireConfig{Sample: sample, DurationS: durationS, Schedule: sch}, rng)
	})
	return s, sch, res.Acquisition, err
}

// The cloud workload replays its own payloads through the cloud stages,
// decrypting under the base capture's schedule, and replays the device
// stages at the capture's length.

func (w *spoolFlush) replay() (stageTimes, error) {
	return replayCaptures(w.src, w.caps[:min(len(w.caps), replaySpool)], spoolCaptureS)
}

func replayCaptures(src *captureSource, caps []capture, durationS float64) (stageTimes, error) {
	st := make(stageTimes)
	for _, c := range caps {
		base := src.bases[c.base]
		s, _, _, err := st.replayAcquire(mix(base.seed, uint64(c.offset)), bloodSample(300), durationS)
		if err != nil {
			return nil, err
		}
		if err := st.replayCloud(c.payload, base.schedule, s); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// replay re-creates each of the first diagnostics' acquisitions from its
// seed, zips it as the phone does, and runs the cloud stages and the decrypt
// on that.
func (w *deviceDiagnostic) replay() (stageTimes, error) {
	st := make(stageTimes)
	alphabet := beads.DefaultAlphabet()
	for _, in := range w.ins[:min(len(w.ins), replayDevice)] {
		id, err := alphabet.NewIdentifier(drbg.NewFromSeed(in.seed))
		if err != nil {
			return nil, err
		}
		mixed, err := alphabet.MixedSample(id, bloodSample(in.cellsPerUl))
		if err != nil {
			return nil, err
		}
		s, sch, acq, err := st.replayAcquire(in.seed, mixed, deviceCaptureS)
		if err != nil {
			return nil, err
		}
		var payload []byte
		st.timed("phone.zip_ms", func() { payload, err = csvio.CompressAcquisition(acq) })
		if err != nil {
			return nil, err
		}
		if err := st.replayCloud(payload, sch, s); err != nil {
			return nil, err
		}
	}
	return st, nil
}
