package electrode

import (
	"math"
	"testing"
	"testing/quick"

	"medsen/internal/microfluidic"
)

func TestNewArrayValidation(t *testing.T) {
	if _, err := NewArray(0); err == nil {
		t.Fatal("expected error for 0 outputs")
	}
	if _, err := NewArray(-3); err == nil {
		t.Fatal("expected error for negative outputs")
	}
	a, err := NewArray(9)
	if err != nil {
		t.Fatalf("NewArray(9): %v", err)
	}
	if a.NumOutputs != 9 || a.PitchUm != 25 || a.WidthUm != 20 {
		t.Fatalf("unexpected array: %+v", a)
	}
}

func TestMustArrayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustArray(0)
}

func TestSpanMatchesPaper(t *testing.T) {
	// §VII-A: 45 µm span (25 µm pitch + two 10 µm half-electrodes).
	if got := MustArray(9).SpanUm(); got != 45 {
		t.Fatalf("span = %v, want 45", got)
	}
}

func TestPeaksPerParticleSignatures(t *testing.T) {
	a := MustArray(9)
	tests := []struct {
		name   string
		active []bool
		want   int
	}{
		{"none", make([]bool, 9), 0},
		{"lead only", mask(9, 0), 1},
		{"one non-lead", mask(9, 3), 2},
		{"lead plus one", mask(9, 0, 1), 3},
		// Fig. 8: outputs 1-3 on → five peaks for a single cell.
		{"fig8 three outputs", mask(9, 0, 1, 2), 5},
		// Fig. 11d: all nine on → 17 peaks (1 + 8×2).
		{"all nine", mask(9, 0, 1, 2, 3, 4, 5, 6, 7, 8), 17},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := a.PeaksPerParticle(tc.active); got != tc.want {
				t.Fatalf("PeaksPerParticle = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestPeaksPerParticleIgnoresOutOfRange(t *testing.T) {
	a := MustArray(3)
	active := []bool{true, true, true, true, true} // longer than array
	if got := a.PeaksPerParticle(active); got != 5 {
		t.Fatalf("PeaksPerParticle = %d, want 5 (1+2+2)", got)
	}
}

func mask(n int, on ...int) []bool {
	m := make([]bool, n)
	for _, i := range on {
		m[i] = true
	}
	return m
}

func testTransit() microfluidic.Transit {
	return microfluidic.Transit{
		Type:        microfluidic.TypeBloodCell,
		EntryS:      10.0,
		VelocityUmS: 2200,
	}
}

func TestPulsesForTransitCounts(t *testing.T) {
	a := MustArray(9)
	tr := testTransit()
	for _, n := range []int{0, 1, 3, 9} {
		on := make([]int, n)
		for i := range on {
			on[i] = i
		}
		active := mask(9, on...)
		pulses := a.PulsesForTransit(tr, 2e6, active, nil, 1)
		if got, want := len(pulses), a.PeaksPerParticle(active); got != want {
			t.Fatalf("%d active: %d pulses, want %d", n, got, want)
		}
	}
}

func TestPulsesForTransitTiming(t *testing.T) {
	a := MustArray(9)
	tr := testTransit()
	pulses := a.PulsesForTransit(tr, 2e6, mask(9, 0, 1), nil, 1)
	if len(pulses) != 3 {
		t.Fatalf("expected 3 pulses, got %d", len(pulses))
	}
	for i := 1; i < len(pulses); i++ {
		if pulses[i].TimeS <= pulses[i-1].TimeS {
			t.Fatalf("pulses not time-ordered: %v", pulses)
		}
	}
	// Double peak of electrode 1 separated by one pitch of travel.
	sep := pulses[2].TimeS - pulses[1].TimeS
	want := a.PitchUm / tr.VelocityUmS
	if math.Abs(sep-want) > 1e-9 {
		t.Fatalf("double-peak separation %v, want %v", sep, want)
	}
	for _, p := range pulses {
		if p.TimeS < tr.EntryS {
			t.Fatalf("pulse before entry: %v", p.TimeS)
		}
	}
}

func TestPulseWidthMatchesTwentyMs(t *testing.T) {
	a := MustArray(9)
	tr := testTransit() // 2200 µm/s ≈ nominal pump speed
	pulses := a.PulsesForTransit(tr, 2e6, mask(9, 0), nil, 1)
	if len(pulses) != 1 {
		t.Fatalf("expected 1 pulse, got %d", len(pulses))
	}
	// Full width ≈ 4σ ≈ 20 ms at nominal speed (§VII-A).
	fullMs := 4 * pulses[0].SigmaS * 1000
	if fullMs < 15 || fullMs > 27 {
		t.Fatalf("pulse full width %.1f ms, want ~20", fullMs)
	}
}

func TestPulsesGainScalesAmplitude(t *testing.T) {
	a := MustArray(9)
	tr := testTransit()
	gains := make([]float64, 9)
	for i := range gains {
		gains[i] = 1
	}
	gains[1] = 2.5
	pulses := a.PulsesForTransit(tr, 500e3, mask(9, 0, 1), gains, 1)
	var lead, other float64
	for _, p := range pulses {
		switch p.Electrode {
		case 0:
			lead = p.Amplitude
		case 1:
			other = p.Amplitude
		}
	}
	if math.Abs(other/lead-2.5) > 1e-9 {
		t.Fatalf("gain ratio = %v, want 2.5", other/lead)
	}
}

func TestPulsesSpeedFactorWidensSlowerFlow(t *testing.T) {
	a := MustArray(9)
	tr := testTransit()
	fast := a.PulsesForTransit(tr, 2e6, mask(9, 0), nil, 1)
	slow := a.PulsesForTransit(tr, 2e6, mask(9, 0), nil, 0.5)
	if len(fast) != 1 || len(slow) != 1 {
		t.Fatal("expected single pulses")
	}
	// §IV-A: slower fluid speed results in larger peak widths.
	if slow[0].SigmaS <= fast[0].SigmaS {
		t.Fatalf("slow sigma %v should exceed fast %v", slow[0].SigmaS, fast[0].SigmaS)
	}
	if math.Abs(slow[0].SigmaS/fast[0].SigmaS-2) > 1e-9 {
		t.Fatalf("halving speed should double sigma")
	}
}

func TestPulsesZeroSpeedFactorDefaultsToNominal(t *testing.T) {
	a := MustArray(9)
	tr := testTransit()
	def := a.PulsesForTransit(tr, 2e6, mask(9, 0), nil, 0)
	one := a.PulsesForTransit(tr, 2e6, mask(9, 0), nil, 1)
	if len(def) != 1 || def[0].SigmaS != one[0].SigmaS {
		t.Fatal("speedFactor<=0 should behave as 1")
	}
}

func TestPulsesFrequencyDependence(t *testing.T) {
	a := MustArray(9)
	tr := testTransit() // blood cell
	low := a.PulsesForTransit(tr, 500e3, mask(9, 0), nil, 1)
	high := a.PulsesForTransit(tr, 3e6, mask(9, 0), nil, 1)
	if high[0].Amplitude >= low[0].Amplitude {
		t.Fatalf("blood-cell amplitude should roll off at 3 MHz: %v vs %v",
			high[0].Amplitude, low[0].Amplitude)
	}
}

func TestQuickPulseCountMatchesFactor(t *testing.T) {
	a := MustArray(16)
	tr := testTransit()
	f := func(bits uint16) bool {
		active := make([]bool, 16)
		for i := 0; i < 16; i++ {
			active[i] = bits&(1<<i) != 0
		}
		pulses := a.PulsesForTransit(tr, 2e6, active, nil, 1)
		return len(pulses) == a.PeaksPerParticle(active)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInterfaceRegimes(t *testing.T) {
	ifc := DefaultInterface()
	// §III-A: below 10 kHz the impedance is in the MΩ range.
	if z := ifc.MagnitudeOhm(5e3); z < 1e6 {
		t.Fatalf("|Z| at 5 kHz = %v, want MΩ range", z)
	}
	// Above 100 kHz the capacitance is short-circuited: |Z| approaches R.
	if z := ifc.MagnitudeOhm(2e6); z > ifc.SolutionResistanceOhm*1.1 {
		t.Fatalf("|Z| at 2 MHz = %v, want ≈ R = %v", z, ifc.SolutionResistanceOhm)
	}
	if ifc.ResistanceDominant(5e3) {
		t.Fatal("5 kHz should be capacitance-dominant")
	}
	if !ifc.ResistanceDominant(2e6) {
		t.Fatal("2 MHz should be resistance-dominant")
	}
	if ifc.ResistanceDominant(0) {
		t.Fatal("0 Hz cannot be resistance-dominant")
	}
}

func TestInterfaceMagnitudeMonotone(t *testing.T) {
	ifc := DefaultInterface()
	prev := math.Inf(1)
	for _, f := range []float64{1e3, 1e4, 1e5, 1e6, 4e6} {
		z := ifc.MagnitudeOhm(f)
		if z > prev {
			t.Fatalf("|Z| should be non-increasing with frequency; %v at %v Hz", z, f)
		}
		prev = z
	}
	if !math.IsInf(ifc.MagnitudeOhm(0), 1) {
		t.Fatal("|Z| at DC should be infinite")
	}
}

func TestRegionLength(t *testing.T) {
	a := MustArray(9)
	if got := a.RegionLengthUm(); got != float64(19*25) {
		t.Fatalf("region length = %v", got)
	}
}

func TestNewArrayWithPitch(t *testing.T) {
	a, err := NewArrayWithPitch(9, 50)
	if err != nil {
		t.Fatalf("NewArrayWithPitch: %v", err)
	}
	if a.PitchUm != 50 {
		t.Fatalf("pitch = %v", a.PitchUm)
	}
	// The sensing zone stays at the fabricated scale.
	if a.SensingLengthUm != PitchUm+WidthUm {
		t.Fatalf("sensing length = %v", a.SensingLengthUm)
	}
	if _, err := NewArrayWithPitch(0, 50); err == nil {
		t.Error("expected error for zero outputs")
	}
	if _, err := NewArrayWithPitch(9, 10); err == nil {
		t.Error("expected error for pitch below electrode width")
	}
}

func TestCrossingsGeometry(t *testing.T) {
	a := MustArray(3)
	all := a.Crossings(nil)
	// Lead: 1 crossing; two flanked outputs: 2 each → 5 total.
	if len(all) != 5 {
		t.Fatalf("crossings = %d, want 5", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].OffsetUm <= all[i-1].OffsetUm {
			t.Fatal("crossings not sorted by offset")
		}
	}
	if all[0].Electrode != 0 {
		t.Fatalf("first crossing electrode %d, want the lead", all[0].Electrode)
	}

	masked := a.Crossings([]bool{false, true, false})
	if len(masked) != 2 {
		t.Fatalf("masked crossings = %d, want 2", len(masked))
	}
	for _, c := range masked {
		if c.Electrode != 1 {
			t.Fatalf("masked crossing on electrode %d", c.Electrode)
		}
	}
	// A short mask selects nothing beyond its length.
	short := a.Crossings([]bool{true})
	if len(short) != 1 {
		t.Fatalf("short-mask crossings = %d, want 1", len(short))
	}
}

func TestPulseSigma(t *testing.T) {
	a := MustArray(9)
	// Fabricated geometry: 45 µm over 4σ at 2.2 mm/s ≈ 5.1 ms σ.
	sigma := a.PulseSigmaS(2200)
	if sigma < 0.004 || sigma > 0.006 {
		t.Fatalf("sigma = %v", sigma)
	}
	if a.PulseSigmaS(0) != 0 {
		t.Fatal("zero velocity should yield zero sigma")
	}
	// Zero sensing length falls back to the span.
	b := a
	b.SensingLengthUm = 0
	if b.PulseSigmaS(2200) != a.PulseSigmaS(2200) {
		t.Fatal("fallback sensing length mismatch")
	}
}

// SpanUm returns the sensing span of one electrode pair: the distance a
// particle travels while influencing it, the pitch plus two electrode
// half-widths (§VII-A computes 45 µm).
func (a Array) SpanUm() float64 {
	return a.PitchUm + a.WidthUm
}

// The simulation renders pulses in the resistance-dominant regime directly.
// The interface model below backs DESIGN.md §1's claim that the lock-in's
// carriers (≥ 500 kHz) sit in that regime, with the MΩ capacitive regime
// below 10 kHz.

// Interface models the electrode-electrolyte interface of Fig. 3: the
// solution resistance in series with the double-layer capacitance of the two
// electrodes.
type Interface struct {
	// SolutionResistanceOhm is the ionic resistance of the PBS-filled
	// gap (resistance-dominant regime value).
	SolutionResistanceOhm float64
	// DoubleLayerFarad is the double-layer capacitance of one electrode.
	DoubleLayerFarad float64
}

// DefaultInterface returns parameters calibrated so that the impedance is in
// the MΩ range below 10 kHz and settles to the solution resistance above
// 100 kHz, as described in §III-A.
func DefaultInterface() Interface {
	return Interface{
		SolutionResistanceOhm: 120e3, // 120 kΩ pore resistance
		DoubleLayerFarad:      50e-12,
	}
}

// MagnitudeOhm returns |Z| at the given frequency: R in series with the two
// double-layer capacitors, |Z| = sqrt(R² + (2/(ωC))²).
func (ifc Interface) MagnitudeOhm(freqHz float64) float64 {
	if freqHz <= 0 {
		return math.Inf(1)
	}
	omega := 2 * math.Pi * freqHz
	xc := 2 / (omega * ifc.DoubleLayerFarad)
	return math.Sqrt(ifc.SolutionResistanceOhm*ifc.SolutionResistanceOhm + xc*xc)
}

// ResistanceDominant reports whether the interface operates in the
// resistance-dominant regime at the given frequency, the regime MedSen
// measures in (§III-A: capacitance is short-circuited above ~100 kHz).
func (ifc Interface) ResistanceDominant(freqHz float64) bool {
	if freqHz <= 0 {
		return false
	}
	omega := 2 * math.Pi * freqHz
	xc := 2 / (omega * ifc.DoubleLayerFarad)
	return xc < ifc.SolutionResistanceOhm/3
}
