package main

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"strconv"
	"sync"

	"medsen/internal/cipher"
	"medsen/internal/csvio"
	"medsen/internal/drbg"
	"medsen/internal/lockin"
	"medsen/internal/microfluidic"
	"medsen/internal/sensor"
	"medsen/internal/sigproc"
)

// Every input derives from the workload seed through mix, so the same seed
// gives the same captures, keys and schedules whatever the run length.

// mix is a SplitMix64 step over the seed and a list of labels.
func mix(seed uint64, parts ...uint64) uint64 {
	x := seed
	for _, p := range parts {
		x ^= p + 0x9E3779B97F4A7C15 + (x << 6) + (x >> 2)
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		x = z ^ (z >> 31)
	}
	return x
}

// Stream labels for mix, one per kind of input.
const (
	streamBase uint64 = iota + 1
	streamWindow
	streamDevice
	streamSpool
	streamReader
	streamWarm
)

// deviceParams is the key-schedule configuration the controller deploys
// (controller.New): gains the analyst can still detect, at least two active
// electrodes per epoch.
func deviceParams(s *sensor.Sensor) cipher.Params {
	p := s.CipherParams()
	p.GainMin, p.GainMax = 0.9, 1.8
	p.MinActive = 2
	return p
}

// bloodSample is the standard capture sample: 10 µL of blood at the given
// cell concentration.
func bloodSample(cellsPerUl float64) microfluidic.Sample {
	return microfluidic.NewSample(10, map[microfluidic.Type]float64{microfluidic.TypeBloodCell: cellsPerUl})
}

// baseCapture is one long encrypted-mode acquisition from which capture
// windows are cut.
type baseCapture struct {
	seed     uint64
	schedule *cipher.Schedule
	acq      lockin.Acquisition
}

// acquireBase runs the device's encrypt-by-configuration acquisition.
func acquireBase(seed uint64, durationS float64) (baseCapture, error) {
	s := sensor.NewDefault()
	rng := drbg.NewFromSeed(seed)
	sch, err := cipher.Generate(deviceParams(s), durationS, rng)
	if err != nil {
		return baseCapture{}, err
	}
	res, err := s.Acquire(sensor.AcquireConfig{Sample: bloodSample(300), DurationS: durationS, Schedule: sch}, rng)
	if err != nil {
		return baseCapture{}, err
	}
	return baseCapture{seed: seed, schedule: sch, acq: res.Acquisition}, nil
}

// window cuts n samples starting at off from every carrier. The traces share
// the base's backing arrays; nothing here writes to them.
func window(acq lockin.Acquisition, off, n int) lockin.Acquisition {
	out := lockin.Acquisition{CarriersHz: acq.CarriersHz, Traces: make([]sigproc.Trace, len(acq.Traces))}
	for i, tr := range acq.Traces {
		out.Traces[i] = sigproc.Trace{Rate: tr.Rate, Samples: tr.Samples[off : off+n]}
	}
	return out
}

// asDecoded returns the acquisition exactly as the service decodes it from
// CSV: sample values round-trip bit for bit, but the rate is recovered from
// the time column as (n-1)/(t[n-1]-t[0]), which can differ from the
// original in its last bits.
func asDecoded(acq lockin.Acquisition) lockin.Acquisition {
	out := lockin.Acquisition{CarriersHz: acq.CarriersHz, Traces: make([]sigproc.Trace, len(acq.Traces))}
	for i, tr := range acq.Traces {
		n := float64(len(tr.Samples) - 1)
		out.Traces[i] = sigproc.Trace{Rate: n / (n / tr.Rate), Samples: tr.Samples}
	}
	return out
}

// csvRows pre-formats every sample row of an acquisition after its time
// field: ",v1,...,vN\n", each value in the shortest exact form csvio writes.
func csvRows(acq lockin.Acquisition) [][]byte {
	n := len(acq.Traces[0].Samples)
	rows := make([][]byte, n)
	var buf []byte
	for i := range rows {
		start := len(buf)
		for _, tr := range acq.Traces {
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, tr.Samples[i], 'g', -1, 64)
		}
		buf = append(buf, '\n')
		rows[i] = buf[start:len(buf):len(buf)]
	}
	return rows
}

// windowCSV assembles the CSV csvio.EncodeAcquisition writes for the n-sample
// window at off, from pre-formatted rows: only the time column, which
// restarts at zero in every window, is formatted here.
func windowCSV(acq lockin.Acquisition, rows [][]byte, off, n int) []byte {
	var b bytes.Buffer
	b.WriteString("time_s")
	for _, f := range acq.CarriersHz {
		fmt.Fprintf(&b, ",ch_%dHz", int64(f))
	}
	b.WriteByte('\n')
	rate := acq.Traces[0].Rate
	var t []byte
	for i := 0; i < n; i++ {
		t = strconv.AppendFloat(t[:0], float64(i)/rate, 'g', -1, 64)
		b.Write(t)
		b.Write(rows[off+i])
	}
	return b.Bytes()
}

// zipCSV packs CSV text the phone's way (one csvio.MeasurementsFileName
// member) at deflate level 1, which keeps synthesizing hundreds of distinct
// 30 s captures affordable. The service decodes it with the same code path
// as a default-level archive.
func zipCSV(csv []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	zw.RegisterCompressor(zip.Deflate, func(w io.Writer) (io.WriteCloser, error) {
		return flate.NewWriter(w, flate.BestSpeed)
	})
	f, err := zw.Create(csvio.MeasurementsFileName)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(csv); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// capture is one distinct upload and the window it was cut from.
type capture struct {
	index   int
	payload []byte
	base    int
	offset  int
}

// captureSource cuts distinct fixed-length windows from several base
// acquisitions. Peak density varies between acquisitions (particle
// arrivals, the key schedule's active electrodes), and the service's cost
// follows it, so a run draws from enough bases that its mean does not hang
// on one or two of them. Window i sits at position (a·i + b) mod M over all M
// possible (base, offset) positions, with a coprime to M: a bijection, so no
// two captures of a run share bytes.
type captureSource struct {
	bases   []baseCapture
	rows    [][][]byte // per base: csvRows
	n       int        // samples per window
	perBase int        // window positions per base
	a, b    uint64
}

func newCaptureSource(seed uint64, bases int, baseS, windowS float64) (*captureSource, error) {
	cs := &captureSource{bases: make([]baseCapture, bases), rows: make([][][]byte, bases)}
	errs := make([]error, bases)
	var wg sync.WaitGroup
	for i := range cs.bases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs.bases[i], errs[i] = acquireBase(mix(seed, streamBase, uint64(i)), baseS)
			if errs[i] == nil {
				cs.rows[i] = csvRows(cs.bases[i].acq)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rate := cs.bases[0].acq.Traces[0].Rate
	total := len(cs.bases[0].acq.Traces[0].Samples)
	cs.n = int(windowS * rate)
	cs.perBase = total - cs.n + 1
	if cs.perBase < 1 {
		return nil, fmt.Errorf("base of %d samples is shorter than a %d-sample window", total, cs.n)
	}
	m := uint64(cs.perBase * bases)
	cs.a = mix(seed, streamWindow, 1)%m | 1
	for gcd(cs.a, m) != 1 {
		cs.a++
	}
	cs.b = mix(seed, streamWindow, 2) % m
	// The assembled CSV must be exactly what csvio writes; check one window.
	var want bytes.Buffer
	if err := csvio.EncodeAcquisition(&want, window(cs.bases[0].acq, 0, cs.n)); err != nil {
		return nil, err
	}
	if !bytes.Equal(want.Bytes(), windowCSV(cs.bases[0].acq, cs.rows[0], 0, cs.n)) {
		return nil, fmt.Errorf("assembled capture CSV differs from csvio.EncodeAcquisition")
	}
	return cs, nil
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// capacity is how many distinct windows the source can cut.
func (cs *captureSource) capacity() int { return cs.perBase * len(cs.bases) }

// position maps capture index i to its (base, offset).
func (cs *captureSource) position(i int) (base, off int) {
	pos := int((cs.a*uint64(i) + cs.b) % uint64(cs.capacity()))
	return pos / cs.perBase, pos % cs.perBase
}

// make synthesizes capture i.
func (cs *captureSource) make(i int) (capture, error) {
	if i >= cs.capacity() {
		return capture{}, fmt.Errorf("capture %d exceeds the %d distinct windows available", i, cs.capacity())
	}
	b, off := cs.position(i)
	acq := window(cs.bases[b].acq, off, cs.n)
	payload, err := zipCSV(windowCSV(acq, cs.rows[b], off, cs.n))
	if err != nil {
		return capture{}, err
	}
	return capture{index: i, payload: payload, base: b, offset: off}, nil
}

// makeRange synthesizes captures [from, to) on the given number of
// goroutines.
func (cs *captureSource) makeRange(from, to, workers int) ([]capture, error) {
	out := make([]capture, to-from)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := from + w; i < to; i += workers {
				c, err := cs.make(i)
				if err != nil {
					errs[w] = err
					return
				}
				out[i-from] = c
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// spoolEntry is one spooled item: capture index, and whether it re-spools
// an already-acknowledged capture (a lost ack).
type spoolEntry struct {
	capture    int
	retransmit bool
}

// spoolPlanner draws spool-flush cycles: 16 entries each, about a tenth of
// them (after the first cycle) retransmits of a capture acknowledged in one
// of the previous spoolRetransmitCycles cycles — a lost ack is noticed soon.
type spoolPlanner struct {
	rng       *drbg.DRBG
	nextFresh int
	// starts holds, per planned cycle, the first fresh capture index it
	// could use: every capture below starts[c] is acknowledged before
	// cycle c runs.
	starts []int
}

const (
	spoolCycleItems       = 16
	spoolRetransmitPct    = 0.10
	spoolRetransmitCycles = 4
)

func newSpoolPlanner(seed uint64) *spoolPlanner {
	return &spoolPlanner{rng: drbg.NewFromSeed(mix(seed, streamSpool))}
}

// oldestRetransmit is the lowest capture index cycle c may re-spool.
func (p *spoolPlanner) oldestRetransmit(c int) int {
	return p.starts[max(0, c-spoolRetransmitCycles)]
}

// next returns the next cycle's entries.
func (p *spoolPlanner) next() []spoolEntry {
	c := len(p.starts)
	p.starts = append(p.starts, p.nextFresh)
	lo, acked := p.oldestRetransmit(c), p.nextFresh
	out := make([]spoolEntry, spoolCycleItems)
	for j := range out {
		if acked > lo && p.rng.Float64() < spoolRetransmitPct {
			out[j] = spoolEntry{capture: lo + p.rng.Intn(acked-lo), retransmit: true}
			continue
		}
		out[j] = spoolEntry{capture: p.nextFresh}
		p.nextFresh++
	}
	return out
}

// readerPicks is the clinic reader's schedule: which row of the recent page
// each read fetches.
func readerPicks(seed uint64, n int) []int {
	rng := drbg.NewFromSeed(mix(seed, streamReader))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(readerPage)
	}
	return out
}

// readerPage is the clinic listing's page size.
const readerPage = 50

// deviceInput is one diagnostic: the seed of a fresh device and the blood
// concentration of the sample mixed with that patient's password.
type deviceInput struct {
	seed       uint64
	cellsPerUl float64
}

func deviceInputAt(seed uint64, i int) deviceInput {
	h := mix(seed, streamDevice, uint64(i))
	// 150–850 cells/µL spans every CD4 band.
	return deviceInput{seed: h, cellsPerUl: 150 + float64(h%701)}
}
