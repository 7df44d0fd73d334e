package microfluidic

import (
	"math"
	"testing"
	"testing/quick"

	"medsen/internal/drbg"
)

func TestTypeString(t *testing.T) {
	tests := []struct {
		typ  Type
		want string
	}{
		{TypeBloodCell, "blood-cell"},
		{TypeBead358, "bead-3.58um"},
		{TypeBead780, "bead-7.8um"},
		{Type(99), "particle(99)"},
	}
	for _, tc := range tests {
		if got := tc.typ.String(); got != tc.want {
			t.Errorf("Type(%d).String() = %q, want %q", tc.typ, got, tc.want)
		}
	}
}

func TestPropertiesOfKnownTypes(t *testing.T) {
	for _, typ := range AllTypes() {
		p := PropertiesOf(typ)
		if p.DiameterUm <= 0 {
			t.Errorf("%v: non-positive diameter", typ)
		}
		if p.BaseAmplitude <= 0 {
			t.Errorf("%v: non-positive base amplitude", typ)
		}
	}
}

func TestPropertiesOfUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown type")
		}
	}()
	PropertiesOf(Type(42))
}

func TestAmplitudeRatiosMatchPaper(t *testing.T) {
	// §VI-B: blood ≈ 2× and 7.8 µm beads ≈ 4× the 3.58 µm bead amplitude
	// at low frequency.
	ref := PropertiesOf(TypeBead358).AmplitudeAt(500e3)
	blood := PropertiesOf(TypeBloodCell).AmplitudeAt(500e3)
	big := PropertiesOf(TypeBead780).AmplitudeAt(500e3)
	if r := blood / ref; r < 1.6 || r > 2.4 {
		t.Errorf("blood/3.58 amplitude ratio = %v, want ~2", r)
	}
	if r := big / ref; r < 3.5 || r > 4.5 {
		t.Errorf("7.8/3.58 amplitude ratio = %v, want ~4", r)
	}
}

func TestBloodCellRollsOffAboveTwoMHz(t *testing.T) {
	// Fig. 15a: at ≥ 2 MHz blood cells respond with lower impedance than
	// at low frequency, while solid beads stay flat.
	blood := PropertiesOf(TypeBloodCell)
	low := blood.AmplitudeAt(500e3)
	high := blood.AmplitudeAt(3e6)
	if high >= low*0.85 {
		t.Errorf("blood amplitude at 3 MHz (%v) should be well below 500 kHz (%v)", high, low)
	}
	bead := PropertiesOf(TypeBead780)
	if bead.AmplitudeAt(3e6) != bead.AmplitudeAt(500e3) {
		t.Error("solid bead amplitude should be frequency-flat")
	}
}

func TestAmplitudeAtEdgeCases(t *testing.T) {
	p := PropertiesOf(TypeBloodCell)
	if p.AmplitudeAt(0) != p.BaseAmplitude {
		t.Error("zero frequency should return base amplitude")
	}
	if p.AmplitudeAt(-100) != p.BaseAmplitude {
		t.Error("negative frequency should return base amplitude")
	}
}

func TestChannelVelocityMatchesPaper(t *testing.T) {
	// §VII-A: 45 µm electrode span crossed in ~20 ms → ~2.2 mm/s.
	v := DefaultChannel().VelocityUmS()
	transitMs := 45 / v * 1000
	if transitMs < 15 || transitMs > 27 {
		t.Fatalf("transit time %.1f ms, want ~20 ms (v=%v µm/s)", transitMs, v)
	}
}

func TestChannelValidate(t *testing.T) {
	good := DefaultChannel()
	if err := good.Validate(); err != nil {
		t.Fatalf("default channel invalid: %v", err)
	}
	bad := []Channel{
		{WidthUm: 0, HeightUm: 20, PoreLengthUm: 500, FlowRateUlMin: 0.08},
		{WidthUm: 30, HeightUm: -1, PoreLengthUm: 500, FlowRateUlMin: 0.08},
		{WidthUm: 30, HeightUm: 20, PoreLengthUm: 500, FlowRateUlMin: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if (Channel{}).VelocityUmS() != 0 {
		t.Error("zero channel velocity should be 0")
	}
}

func TestSampleExpectedCountAndValidate(t *testing.T) {
	s := NewSample(10, map[Type]float64{TypeBloodCell: 2000, TypeBead358: 50})
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := s.ExpectedCount(TypeBloodCell); got != 20000 {
		t.Fatalf("ExpectedCount = %v, want 20000", got)
	}
	if got := s.ExpectedCount(TypeBead780); got != 0 {
		t.Fatalf("missing type count = %v, want 0", got)
	}
	if got := s.TotalConcentration(); got != 2050 {
		t.Fatalf("TotalConcentration = %v", got)
	}
	if err := (Sample{VolumeUl: 0}).Validate(); err == nil {
		t.Fatal("expected error for zero volume")
	}
	neg := Sample{VolumeUl: 1, ConcentrationPerUl: map[Type]float64{TypeBloodCell: -5}}
	if err := neg.Validate(); err == nil {
		t.Fatal("expected error for negative concentration")
	}
}

func TestNewSampleCopiesAndDropsNonPositive(t *testing.T) {
	conc := map[Type]float64{TypeBloodCell: 100, TypeBead358: 0, TypeBead780: -2}
	s := NewSample(5, conc)
	if _, ok := s.ConcentrationPerUl[TypeBead358]; ok {
		t.Error("zero concentration should be dropped")
	}
	if _, ok := s.ConcentrationPerUl[TypeBead780]; ok {
		t.Error("negative concentration should be dropped")
	}
	conc[TypeBloodCell] = 999
	if s.ConcentrationPerUl[TypeBloodCell] != 100 {
		t.Error("NewSample must copy the map")
	}
}

func TestMixConservesParticles(t *testing.T) {
	blood := NewSample(8, map[Type]float64{TypeBloodCell: 2500})
	beads := NewSample(2, map[Type]float64{TypeBead358: 400, TypeBead780: 100})
	mixed := Mix(blood, beads)
	if mixed.VolumeUl != 10 {
		t.Fatalf("mixed volume %v, want 10", mixed.VolumeUl)
	}
	// Particle counts must be conserved by mixing.
	for _, typ := range AllTypes() {
		want := blood.ExpectedCount(typ) + beads.ExpectedCount(typ)
		got := mixed.ExpectedCount(typ)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%v: mixed count %v, want %v", typ, got, want)
		}
	}
}

func TestMixEmpty(t *testing.T) {
	if got := Mix(Sample{}, Sample{}); got.VolumeUl != 0 {
		t.Fatalf("Mix of empties = %+v", got)
	}
}

func TestQuickMixConservation(t *testing.T) {
	f := func(va, vb uint8, ca, cb uint16) bool {
		a := NewSample(float64(va%50)+1, map[Type]float64{TypeBloodCell: float64(ca)})
		b := NewSample(float64(vb%50)+1, map[Type]float64{TypeBloodCell: float64(cb)})
		m := Mix(a, b)
		want := a.ExpectedCount(TypeBloodCell) + b.ExpectedCount(TypeBloodCell)
		return math.Abs(m.ExpectedCount(TypeBloodCell)-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateTransitsPoissonRate(t *testing.T) {
	rng := drbg.NewFromSeed(1)
	cfg := GenerateConfig{
		Channel:   DefaultChannel(),
		Sample:    NewSample(100, map[Type]float64{TypeBead358: 3000}),
		DurationS: 300,
		Loss:      LossModel{Disabled: true},
	}
	transits, err := GenerateTransits(cfg, rng)
	if err != nil {
		t.Fatalf("GenerateTransits: %v", err)
	}
	// Expected arrivals = conc × flow × duration = 3000 × 0.08/60 × 300 = 1200.
	want := 1200.0
	got := float64(len(transits))
	if math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Fatalf("transit count %v, want ~%v", got, want)
	}
}

func TestGenerateTransitsSorted(t *testing.T) {
	rng := drbg.NewFromSeed(2)
	cfg := GenerateConfig{
		Channel: DefaultChannel(),
		Sample: NewSample(100, map[Type]float64{
			TypeBloodCell: 2000, TypeBead358: 500, TypeBead780: 500,
		}),
		DurationS: 120,
		Loss:      DefaultLossModel(),
	}
	transits, err := GenerateTransits(cfg, rng)
	if err != nil {
		t.Fatalf("GenerateTransits: %v", err)
	}
	for i := 1; i < len(transits); i++ {
		if transits[i].EntryS < transits[i-1].EntryS {
			t.Fatalf("transits not sorted at %d", i)
		}
	}
	for _, tr := range transits {
		if tr.EntryS < 0 || tr.EntryS >= cfg.DurationS {
			t.Fatalf("transit outside window: %v", tr.EntryS)
		}
		if tr.VelocityUmS <= 0 {
			t.Fatalf("non-positive velocity %v", tr.VelocityUmS)
		}
	}
}

func TestGenerateTransitsDeterministicForSeed(t *testing.T) {
	cfg := GenerateConfig{
		Channel:   DefaultChannel(),
		Sample:    NewSample(50, map[Type]float64{TypeBloodCell: 1000, TypeBead780: 200}),
		DurationS: 60,
		Loss:      DefaultLossModel(),
	}
	a, err := GenerateTransits(cfg, drbg.NewFromSeed(33))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTransits(cfg, drbg.NewFromSeed(33))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transit %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateTransitsLossReducesCounts(t *testing.T) {
	cfg := GenerateConfig{
		Channel:   DefaultChannel(),
		Sample:    NewSample(200, map[Type]float64{TypeBead780: 8000}),
		DurationS: 1800, // long run: sedimentation bites
	}
	cfg.Loss = LossModel{Disabled: true}
	ideal, err := GenerateTransits(cfg, drbg.NewFromSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Loss = LossModel{SedimentationScale: 5, AdsorptionScale: 3}
	lossy, err := GenerateTransits(cfg, drbg.NewFromSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(lossy) >= len(ideal) {
		t.Fatalf("loss model should reduce counts: %d vs %d", len(lossy), len(ideal))
	}
	// With strong sedimentation the deficit must exceed Poisson noise.
	if float64(len(lossy)) > 0.9*float64(len(ideal)) {
		t.Fatalf("deficit too small: %d of %d survived", len(lossy), len(ideal))
	}
}

func TestGenerateTransitsValidation(t *testing.T) {
	good := GenerateConfig{
		Channel:   DefaultChannel(),
		Sample:    NewSample(10, map[Type]float64{TypeBloodCell: 100}),
		DurationS: 10,
	}
	rng := drbg.NewFromSeed(1)

	bad := good
	bad.Channel.FlowRateUlMin = 0
	if _, err := GenerateTransits(bad, rng); err == nil {
		t.Error("expected channel validation error")
	}
	bad = good
	bad.Sample.VolumeUl = 0
	if _, err := GenerateTransits(bad, rng); err == nil {
		t.Error("expected sample validation error")
	}
	bad = good
	bad.DurationS = 0
	if _, err := GenerateTransits(bad, rng); err == nil {
		t.Error("expected duration validation error")
	}
	if _, err := GenerateTransits(good, nil); err == nil {
		t.Error("expected nil-rng error")
	}
}

func TestCountByType(t *testing.T) {
	transits := []Transit{
		{Type: TypeBloodCell}, {Type: TypeBloodCell}, {Type: TypeBead358},
	}
	counts := CountByType(transits)
	if counts[TypeBloodCell] != 2 || counts[TypeBead358] != 1 || counts[TypeBead780] != 0 {
		t.Fatalf("CountByType = %v", counts)
	}
}

func TestLossEfficiencyMonotoneInTime(t *testing.T) {
	l := DefaultLossModel()
	p := PropertiesOf(TypeBead780)
	prev := 2.0
	for _, tS := range []float64{0, 600, 1800, 3600, 7200} {
		e := l.efficiency(p, tS)
		if e <= 0 || e > 1 {
			t.Fatalf("efficiency(%v) = %v out of (0,1]", tS, e)
		}
		if e >= prev {
			t.Fatalf("efficiency should decrease with time: %v at t=%v", e, tS)
		}
		prev = e
	}
	if got := (LossModel{Disabled: true}).efficiency(p, 1e6); got != 1 {
		t.Fatalf("disabled loss efficiency = %v, want 1", got)
	}
}

// Sample and transit tallies the tests check mixing and counting with; the
// product counts particles from the decrypted analysis instead.

// ExpectedCount returns the nominal number of particles of the given type in
// the sample (concentration × volume), the "estimated count" axis of
// Figs. 12 and 13.
func (s Sample) ExpectedCount(t Type) float64 {
	return s.ConcentrationPerUl[t] * s.VolumeUl
}

// TotalConcentration sums concentrations over all particle types.
func (s Sample) TotalConcentration() float64 {
	sum := 0.0
	for _, c := range s.ConcentrationPerUl {
		sum += c
	}
	return sum
}

// CountByType tallies transits per particle type.
func CountByType(transits []Transit) map[Type]int {
	out := make(map[Type]int)
	for _, tr := range transits {
		out[tr.Type]++
	}
	return out
}
