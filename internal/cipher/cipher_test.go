package cipher

import (
	"math"
	"testing"
	"testing/quick"

	"medsen/internal/drbg"
	"medsen/internal/electrode"
	"medsen/internal/sigproc"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	cases := []func(*Params){
		func(p *Params) { p.NumElectrodes = 0 },
		func(p *Params) { p.GainLevels = 1 },
		func(p *Params) { p.GainLevels = 300 },
		func(p *Params) { p.GainMin = 0 },
		func(p *Params) { p.GainMax = p.GainMin },
		func(p *Params) { p.SpeedLevels = 0 },
		func(p *Params) { p.SpeedMin = -1 },
		func(p *Params) { p.SpeedMax = p.SpeedMin },
		func(p *Params) { p.EpochS = 0 },
		func(p *Params) { p.MinActive = 0 },
		func(p *Params) { p.MinActive = p.NumElectrodes + 1 },
		func(p *Params) { p.AvoidAdjacent = true; p.MinActive = p.NumElectrodes },
	}
	for i, mutate := range cases {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
}

func TestBitsResolution(t *testing.T) {
	p := DefaultParams() // 16 levels → 4 bits, the paper's choice
	if got := p.GainBits(); got != 4 {
		t.Fatalf("GainBits = %d, want 4", got)
	}
	if got := p.SpeedBits(); got != 4 {
		t.Fatalf("SpeedBits = %d, want 4", got)
	}
	p.GainLevels = 2
	if got := p.GainBits(); got != 1 {
		t.Fatalf("GainBits(2 levels) = %d, want 1", got)
	}
	p.GainLevels = 17
	if got := p.GainBits(); got != 5 {
		t.Fatalf("GainBits(17 levels) = %d, want 5", got)
	}
}

func TestIdealKeyLengthMatchesPaperExample(t *testing.T) {
	// §VI-B: 20K cells, 16 output electrodes, 16 gains (4 bits), 16 flow
	// speeds (4 bits) → 20K × (16 + 8×4 + 4) = 1.04 Mbit ≈ 0.12 MB.
	bits := IdealKeyLengthBits(20000, 16, 4, 4)
	if bits != 20000*52 {
		t.Fatalf("key length = %d bits, want %d", bits, 20000*52)
	}
	mb := float64(bits) / 8 / 1e6
	if mb < 0.11 || mb > 0.14 {
		t.Fatalf("key size %.3f MB, paper reports 0.12 MB", mb)
	}
}

func TestGainAndSpeedQuantization(t *testing.T) {
	p := DefaultParams()
	if got := p.GainAt(0); got != p.GainMin {
		t.Fatalf("GainAt(0) = %v, want %v", got, p.GainMin)
	}
	if got := p.GainAt(uint8(p.GainLevels - 1)); math.Abs(got-p.GainMax) > 1e-12 {
		t.Fatalf("GainAt(max) = %v, want %v", got, p.GainMax)
	}
	if got := p.SpeedAt(0); got != p.SpeedMin {
		t.Fatalf("SpeedAt(0) = %v, want %v", got, p.SpeedMin)
	}
	if got := p.SpeedAt(uint8(p.SpeedLevels - 1)); math.Abs(got-p.SpeedMax) > 1e-12 {
		t.Fatalf("SpeedAt(max) = %v, want %v", got, p.SpeedMax)
	}
	// Monotone in level.
	prev := -1.0
	for l := 0; l < p.GainLevels; l++ {
		g := p.GainAt(uint8(l))
		if g <= prev {
			t.Fatalf("gain not monotone at level %d", l)
		}
		prev = g
	}
}

func TestGenerateScheduleShape(t *testing.T) {
	p := DefaultParams()
	s, err := Generate(p, 10.5, drbg.NewFromSeed(1))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(s.Epochs) != 11 { // ceil(10.5 / 1.0)
		t.Fatalf("epochs = %d, want 11", len(s.Epochs))
	}
	for i, e := range s.Epochs {
		if len(e.Active) != p.NumElectrodes || len(e.GainLevel) != p.NumElectrodes {
			t.Fatalf("epoch %d sized wrong: %+v", i, e)
		}
		active := 0
		for _, on := range e.Active {
			if on {
				active++
			}
		}
		if active < p.MinActive {
			t.Fatalf("epoch %d has %d active, want >= %d", i, active, p.MinActive)
		}
		if int(e.SpeedLevel) >= p.SpeedLevels {
			t.Fatalf("epoch %d speed level %d out of range", i, e.SpeedLevel)
		}
		for _, g := range e.GainLevel {
			if int(g) >= p.GainLevels {
				t.Fatalf("epoch %d gain level %d out of range", i, g)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultParams()
	a, err := Generate(p, 5, drbg.NewFromSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 5, drbg.NewFromSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Epochs {
		for j := range a.Epochs[i].Active {
			if a.Epochs[i].Active[j] != b.Epochs[i].Active[j] {
				t.Fatal("schedules with equal seeds must match")
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	p := DefaultParams()
	if _, err := Generate(p, 0, drbg.NewFromSeed(1)); err == nil {
		t.Error("expected duration error")
	}
	if _, err := Generate(p, 5, nil); err == nil {
		t.Error("expected nil-rng error")
	}
	p.NumElectrodes = 0
	if _, err := Generate(p, 5, drbg.NewFromSeed(1)); err == nil {
		t.Error("expected params error")
	}
}

func TestAvoidAdjacentProperty(t *testing.T) {
	p := DefaultParams()
	p.AvoidAdjacent = true
	s, err := Generate(p, 200, drbg.NewFromSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range s.Epochs {
		for j := 1; j < len(e.Active); j++ {
			if e.Active[j] && e.Active[j-1] {
				t.Fatalf("epoch %d activates adjacent electrodes %d,%d", i, j-1, j)
			}
		}
	}
}

func TestEpochIndexClamps(t *testing.T) {
	s, err := Generate(DefaultParams(), 5, drbg.NewFromSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.EpochIndexAt(-1); got != 0 {
		t.Fatalf("EpochIndexAt(-1) = %d", got)
	}
	if got := s.EpochIndexAt(2.5); got != 2 {
		t.Fatalf("EpochIndexAt(2.5) = %d", got)
	}
	if got := s.EpochIndexAt(999); got != 4 {
		t.Fatalf("EpochIndexAt(999) = %d", got)
	}
	empty := &Schedule{Params: DefaultParams()}
	if got := empty.EpochIndexAt(0); got != -1 {
		t.Fatalf("empty schedule EpochIndexAt = %d, want -1", got)
	}
}

func TestScheduleBits(t *testing.T) {
	p := DefaultParams() // 16 electrodes, 4-bit gains, 4-bit speed
	s, err := Generate(p, 10, drbg.NewFromSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	perEpoch := 16 + 16*4 + 4
	if got := s.ScheduleBits(); got != perEpoch*10 {
		t.Fatalf("ScheduleBits = %d, want %d", got, perEpoch*10)
	}
}

func TestGainsAndSpeedMaterialization(t *testing.T) {
	p := DefaultParams()
	s, err := Generate(p, 3, drbg.NewFromSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	levels := s.KeyAt(1.5).GainLevel
	if len(levels) != p.NumElectrodes {
		t.Fatalf("gains length %d", len(levels))
	}
	for _, lv := range levels {
		if g := p.GainAt(lv); g < p.GainMin || g > p.GainMax {
			t.Fatalf("gain %v out of [%v, %v]", g, p.GainMin, p.GainMax)
		}
	}
	sp := s.SpeedAt(1.5)
	if sp < p.SpeedMin || sp > p.SpeedMax {
		t.Fatalf("speed %v out of range", sp)
	}
}

// buildPeaksForParticle synthesizes the analyst-visible peaks one particle
// generates under a given epoch key, mirroring the sensor geometry.
func buildPeaksForParticle(
	t *testing.T,
	arr electrode.Array,
	p Params,
	key EpochKey,
	entryS, trueAmp, trueWidth float64,
) []sigproc.Peak {
	t.Helper()
	speed := p.SpeedAt(key.SpeedLevel)
	v := 2200.0 * speed
	var peaks []sigproc.Peak
	for i := 0; i < arr.NumOutputs && i < len(key.Active); i++ {
		if !key.Active[i] {
			continue
		}
		center := float64(2*i+1) * arr.PitchUm
		offsets := []float64{center - arr.PitchUm/2, center + arr.PitchUm/2}
		if i == 0 {
			offsets = offsets[1:]
		}
		gain := p.GainAt(key.GainLevel[i])
		for _, off := range offsets {
			peaks = append(peaks, sigproc.Peak{
				Time:      entryS + off/v,
				Amplitude: trueAmp * gain,
				Width:     trueWidth / speed,
			})
		}
	}
	return peaks
}

func testScheduleWithKeys(p Params, duration float64, keys []EpochKey) *Schedule {
	return &Schedule{Params: p, DurationS: duration, Epochs: keys}
}

func nineElectrodeParams() Params {
	p := DefaultParams()
	p.NumElectrodes = 9
	return p
}

func TestDecryptRecoversCountAmplitudeWidth(t *testing.T) {
	arr := electrode.MustArray(9)
	p := nineElectrodeParams()
	key := EpochKey{
		Active:     []bool{true, false, true, false, false, false, false, false, false},
		GainLevel:  []uint8{3, 0, 12, 0, 0, 0, 0, 0, 0},
		SpeedLevel: 5,
	}
	s := testScheduleWithKeys(p, 1.0, []EpochKey{key})

	const trueAmp, trueWidth = 0.006, 0.02
	var peaks []sigproc.Peak
	entries := []float64{0.10, 0.45, 0.80}
	for _, e := range entries {
		peaks = append(peaks, buildPeaksForParticle(t, arr, p, key, e, trueAmp, trueWidth)...)
	}

	dec, err := s.Decrypt(peaks, arr)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if dec.Count != len(entries) {
		t.Fatalf("decrypted count = %d, want %d", dec.Count, len(entries))
	}
	if len(dec.Particles) != len(entries) {
		t.Fatalf("resolved %d particles, want %d", len(dec.Particles), len(entries))
	}
	for i, est := range dec.Particles {
		if math.Abs(est.Amplitude-trueAmp) > 1e-9 {
			t.Fatalf("particle %d amplitude %v, want %v", i, est.Amplitude, trueAmp)
		}
		if math.Abs(est.WidthS-trueWidth) > 1e-9 {
			t.Fatalf("particle %d width %v, want %v", i, est.WidthS, trueWidth)
		}
	}
}

func TestDecryptAcrossEpochsWithDifferentFactors(t *testing.T) {
	arr := electrode.MustArray(9)
	p := nineElectrodeParams()
	keyA := EpochKey{ // lead only: factor 1
		Active:    []bool{true, false, false, false, false, false, false, false, false},
		GainLevel: make([]uint8, 9), SpeedLevel: 0,
	}
	keyB := EpochKey{ // three non-lead outputs: factor 6
		Active:    []bool{false, true, false, true, false, true, false, false, false},
		GainLevel: make([]uint8, 9), SpeedLevel: 15,
	}
	s := testScheduleWithKeys(p, 2.0, []EpochKey{keyA, keyB})

	var peaks []sigproc.Peak
	// Two particles in epoch A, one in epoch B.
	peaks = append(peaks, buildPeaksForParticle(t, arr, p, keyA, 0.2, 0.005, 0.02)...)
	peaks = append(peaks, buildPeaksForParticle(t, arr, p, keyA, 0.6, 0.005, 0.02)...)
	peaks = append(peaks, buildPeaksForParticle(t, arr, p, keyB, 1.4, 0.005, 0.02)...)

	dec, err := s.Decrypt(peaks, arr)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if dec.Count != 3 {
		t.Fatalf("count = %d, want 3", dec.Count)
	}
}

func TestDecryptEmptyPeaks(t *testing.T) {
	arr := electrode.MustArray(9)
	s, err := Generate(nineElectrodeParams(), 2, drbg.NewFromSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := s.Decrypt(nil, arr)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Count != 0 || len(dec.Particles) != 0 {
		t.Fatalf("expected empty decryption, got %+v", dec)
	}
}

func TestDecryptArrayLargerThanKeyedFails(t *testing.T) {
	p := DefaultParams()
	p.NumElectrodes = 3
	s, err := Generate(p, 1, drbg.NewFromSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Decrypt(nil, electrode.MustArray(9)); err == nil {
		t.Fatal("expected error when array outputs exceed keyed electrodes")
	}
}

func TestQuickDecryptCountRoundTrip(t *testing.T) {
	arr := electrode.MustArray(9)
	p := nineElectrodeParams()
	rng := drbg.NewFromSeed(77)
	f := func(nParticles uint8, seed uint16) bool {
		n := int(nParticles%6) + 1
		s, err := Generate(p, float64(n), drbg.NewFromSeed(uint64(seed)))
		if err != nil {
			return false
		}
		var peaks []sigproc.Peak
		for i := 0; i < n; i++ {
			// One particle per epoch, comfortably inside it.
			entry := float64(i) + 0.2 + 0.3*rng.Float64()
			key := s.KeyAt(entry)
			peaks = append(peaks, buildPeaksForParticle(t, arr, p, key, entry, 0.004, 0.02)...)
		}
		dec, err := s.Decrypt(peaks, arr)
		if err != nil {
			return false
		}
		return dec.Count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleZero(t *testing.T) {
	s, err := Generate(DefaultParams(), 5, drbg.NewFromSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	backing := s.Epochs // retain the backing array to verify wiping
	s.Zero()
	if len(s.Epochs) != 0 || s.DurationS != 0 {
		t.Fatalf("Zero left state: %+v", s)
	}
	for i := range backing[:cap(backing)] {
		e := backing[i]
		for _, on := range e.Active {
			if on {
				t.Fatal("active mask not wiped")
			}
		}
		for _, g := range e.GainLevel {
			if g != 0 {
				t.Fatal("gain levels not wiped")
			}
		}
		if e.SpeedLevel != 0 {
			t.Fatal("speed level not wiped")
		}
	}
}
