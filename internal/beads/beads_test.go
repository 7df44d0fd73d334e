package beads

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"medsen/internal/drbg"
	"medsen/internal/microfluidic"
)

func TestIdentifierString(t *testing.T) {
	id := Identifier{
		microfluidic.TypeBead780: 2,
		microfluidic.TypeBead358: 5,
	}
	want := "bead-3.58um:L5+bead-7.8um:L2"
	if got := id.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if got := (Identifier{}).String(); got != "<empty>" {
		t.Fatalf("empty String = %q", got)
	}
	zeroed := Identifier{microfluidic.TypeBead358: 0}
	if got := zeroed.String(); got != "<empty>" {
		t.Fatalf("level-0 String = %q", got)
	}
}

func TestIdentifierEqual(t *testing.T) {
	a := Identifier{microfluidic.TypeBead358: 3}
	b := Identifier{microfluidic.TypeBead358: 3, microfluidic.TypeBead780: 0}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("identifiers differing only by level-0 entries must be equal")
	}
	c := Identifier{microfluidic.TypeBead358: 4}
	if a.Equal(c) {
		t.Fatal("different levels must not be equal")
	}
	d := Identifier{microfluidic.TypeBead358: 3, microfluidic.TypeBead780: 1}
	if a.Equal(d) {
		t.Fatal("extra type must not be equal")
	}
}

func TestAlphabetValidate(t *testing.T) {
	if err := DefaultAlphabet().Validate(); err != nil {
		t.Fatalf("default alphabet invalid: %v", err)
	}
	cases := []Alphabet{
		{},
		{Types: []microfluidic.Type{microfluidic.TypeBloodCell}, LevelsPerUl: []float64{10}},
		{Types: []microfluidic.Type{microfluidic.TypeBead358, microfluidic.TypeBead358}, LevelsPerUl: []float64{10}},
		{Types: []microfluidic.Type{microfluidic.TypeBead358}},
		{Types: []microfluidic.Type{microfluidic.TypeBead358}, LevelsPerUl: []float64{10, 10}},
		{Types: []microfluidic.Type{microfluidic.TypeBead358}, LevelsPerUl: []float64{10, 5}},
		{Types: []microfluidic.Type{microfluidic.TypeBead358}, LevelsPerUl: []float64{10}, MeasurementCV: 1.5},
	}
	for i, a := range cases {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestPasswordSpaceSize(t *testing.T) {
	a := DefaultAlphabet() // 2 types × 5 levels → 6² − 1 = 35
	if got := a.PasswordSpaceSize(); got != 35 {
		t.Fatalf("space size %d, want 35", got)
	}
	if bits := a.EntropyBits(); math.Abs(bits-math.Log2(35)) > 1e-9 {
		t.Fatalf("entropy %v bits", bits)
	}
}

func TestDilutionFactor(t *testing.T) {
	a := DefaultAlphabet() // 2 µL beads + 8 µL blood → 5×
	if got := a.DilutionFactor(); got != 5 {
		t.Fatalf("dilution factor %v, want 5", got)
	}
	if got := (Alphabet{}).DilutionFactor(); got != 1 {
		t.Fatalf("degenerate dilution factor %v, want 1", got)
	}
}

func TestMixedSampleDilutesBeads(t *testing.T) {
	a := DefaultAlphabet()
	id := Identifier{microfluidic.TypeBead358: 3}
	blood := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 2000,
	})
	mixed, err := a.MixedSample(id, blood)
	if err != nil {
		t.Fatalf("MixedSample: %v", err)
	}
	if mixed.VolumeUl != 10 {
		t.Fatalf("mixed volume %v, want 10", mixed.VolumeUl)
	}
	wantBead := a.LevelsPerUl[2] / a.DilutionFactor()
	if got := mixed.ConcentrationPerUl[microfluidic.TypeBead358]; math.Abs(got-wantBead) > 1e-9 {
		t.Fatalf("mixed bead conc %v, want %v", got, wantBead)
	}
	// Blood is diluted by the complementary factor (8/10).
	if got := mixed.ConcentrationPerUl[microfluidic.TypeBloodCell]; math.Abs(got-1600) > 1e-9 {
		t.Fatalf("mixed blood conc %v, want 1600", got)
	}
}

func TestNewIdentifierNonEmptyAndInRange(t *testing.T) {
	a := DefaultAlphabet()
	rng := drbg.NewFromSeed(1)
	for i := 0; i < 200; i++ {
		id, err := a.NewIdentifier(rng)
		if err != nil {
			t.Fatalf("NewIdentifier: %v", err)
		}
		nonEmpty := false
		for _, typ := range a.Types {
			lv := id[typ]
			if lv < 0 || lv > len(a.LevelsPerUl) {
				t.Fatalf("level %d out of range", lv)
			}
			if lv > 0 {
				nonEmpty = true
			}
		}
		if !nonEmpty {
			t.Fatal("drew empty identifier")
		}
	}
	if _, err := a.NewIdentifier(nil); err == nil {
		t.Fatal("expected nil-rng error")
	}
}

func TestSampleForRealizesConcentrations(t *testing.T) {
	a := DefaultAlphabet()
	id := Identifier{microfluidic.TypeBead358: 2, microfluidic.TypeBead780: 5}
	s, err := a.SampleFor(id, 2)
	if err != nil {
		t.Fatalf("SampleFor: %v", err)
	}
	if s.VolumeUl != 2 {
		t.Fatalf("volume %v", s.VolumeUl)
	}
	if got := s.ConcentrationPerUl[microfluidic.TypeBead358]; got != a.LevelsPerUl[1] {
		t.Fatalf("3.58 conc %v, want %v", got, a.LevelsPerUl[1])
	}
	if got := s.ConcentrationPerUl[microfluidic.TypeBead780]; got != a.LevelsPerUl[4] {
		t.Fatalf("7.8 conc %v, want %v", got, a.LevelsPerUl[4])
	}
	if _, err := a.SampleFor(Identifier{}, 2); err == nil {
		t.Fatal("expected error for empty identifier")
	}
	if _, err := a.SampleFor(id, 0); err == nil {
		t.Fatal("expected error for zero volume")
	}
	if _, err := a.SampleFor(Identifier{microfluidic.TypeBead358: 99}, 2); err == nil {
		t.Fatal("expected error for out-of-range level")
	}
}

func TestClassifyConcentrationExactLevels(t *testing.T) {
	a := DefaultAlphabet()
	for i, c := range a.LevelsPerUl {
		if got := a.ClassifyConcentration(c); got != i+1 {
			t.Fatalf("level %d concentration classified as %d", i+1, got)
		}
	}
	if got := a.ClassifyConcentration(0); got != 0 {
		t.Fatalf("zero concentration classified as %d", got)
	}
	if got := a.ClassifyConcentration(10); got != 0 {
		t.Fatalf("trace concentration classified as %d, want absent", got)
	}
}

func TestClassifyConcentrationTolerantOfNoise(t *testing.T) {
	a := DefaultAlphabet()
	// ±15% measurement error must not change the level call.
	for i, c := range a.LevelsPerUl {
		for _, f := range []float64{0.85, 1.15} {
			if got := a.ClassifyConcentration(c * f); got != i+1 {
				t.Fatalf("level %d × %v classified as %d", i+1, f, got)
			}
		}
	}
}

func TestQuickRecoverIdentifierRoundTrip(t *testing.T) {
	a := DefaultAlphabet()
	rng := drbg.NewFromSeed(7)
	f := func(noiseSeed uint16) bool {
		id, err := a.NewIdentifier(rng)
		if err != nil {
			return false
		}
		noise := drbg.NewFromSeed(uint64(noiseSeed))
		measured := make(map[microfluidic.Type]float64)
		for _, typ := range a.Types {
			c, err := a.ConcentrationOf(id, typ)
			if err != nil {
				return false
			}
			measured[typ] = c * (1 + 0.05*noise.NormFloat64())
		}
		return a.RecoverIdentifier(measured).Equal(id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCollisionRiskShrinksWithCount(t *testing.T) {
	a := DefaultAlphabet()
	small, err := a.CollisionRisk(3, 20)
	if err != nil {
		t.Fatal(err)
	}
	large, err := a.CollisionRisk(3, 500)
	if err != nil {
		t.Fatal(err)
	}
	if large >= small {
		t.Fatalf("risk should shrink with count: %v vs %v", large, small)
	}
	if large > 0.05 {
		t.Fatalf("risk at 500 beads = %v, want small", large)
	}
}

func TestCollisionRiskEdges(t *testing.T) {
	a := DefaultAlphabet()
	if _, err := a.CollisionRisk(0, 100); err == nil {
		t.Fatal("expected error for level 0")
	}
	if _, err := a.CollisionRisk(len(a.LevelsPerUl)+1, 100); err == nil {
		t.Fatal("expected error for out-of-range level")
	}
	r, err := a.CollisionRisk(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("zero-count risk = %v, want 1", r)
	}
}

func TestLowLevelsFinerAbsoluteResolution(t *testing.T) {
	// §VII-C: "lower bead concentrations have less variance and improved
	// resolution" — the absolute measurement spread (beads/µL) grows with
	// the level, so low levels can sit closer together in absolute terms.
	a := DefaultAlphabet()
	const windowUl = 0.8 // 10-minute window at 0.08 µL/min
	prevSigma := 0.0
	for i, conc := range a.LevelsPerUl {
		mixed := conc / a.DilutionFactor()
		count := mixed * windowUl
		relSigma := math.Sqrt(a.MeasurementCV*a.MeasurementCV + 1/count)
		absSigma := mixed * relSigma
		if absSigma <= prevSigma {
			t.Fatalf("absolute sigma should grow with level: level %d sigma %v <= %v",
				i+1, absSigma, prevSigma)
		}
		prevSigma = absSigma
	}
}

func TestAllLevelsLowRiskInStandardWindow(t *testing.T) {
	a := DefaultAlphabet()
	const windowUl = 0.8 // 10-minute window
	for lv := 1; lv <= len(a.LevelsPerUl); lv++ {
		count := a.LevelsPerUl[lv-1] / a.DilutionFactor() * windowUl
		risk, err := a.CollisionRisk(lv, count)
		if err != nil {
			t.Fatal(err)
		}
		if risk > 0.03 {
			t.Errorf("level %d risk %.4f, want <= 0.03", lv, risk)
		}
	}
}

func TestEnumerateIdentifiers(t *testing.T) {
	a := DefaultAlphabet()
	ids := a.EnumerateIdentifiers()
	if len(ids) != a.PasswordSpaceSize() {
		t.Fatalf("enumerated %d, want %d", len(ids), a.PasswordSpaceSize())
	}
	seen := map[string]bool{}
	for _, id := range ids {
		code := id.String()
		if code == "<empty>" {
			t.Fatal("empty word enumerated")
		}
		if seen[code] {
			t.Fatalf("duplicate word %s", code)
		}
		seen[code] = true
	}
}

func TestMinLogSeparationPositive(t *testing.T) {
	a := DefaultAlphabet()
	sep := a.MinLogSeparation()
	if sep <= 0 {
		t.Fatalf("min separation %v, want positive", sep)
	}
	// The smallest gap is the tightest consecutive level step.
	want := math.Inf(1)
	for i := 1; i < len(a.LevelsPerUl); i++ {
		if d := math.Log(a.LevelsPerUl[i] / a.LevelsPerUl[i-1]); d < want {
			want = d
		}
	}
	if math.Abs(sep-want) > 1e-9 {
		t.Fatalf("min separation %v, want %v (tightest level step)", sep, want)
	}
}

func TestIdentifierJSONRoundTrip(t *testing.T) {
	id := Identifier{microfluidic.TypeBead358: 2, microfluidic.TypeBead780: 5}
	data, err := json.Marshal(id)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var got Identifier
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !got.Equal(id) {
		t.Fatalf("round trip: %v vs %v", got, id)
	}
}

func TestIdentifierJSONRejectsUnknownType(t *testing.T) {
	var got Identifier
	if err := json.Unmarshal([]byte(`{"unobtainium": 3}`), &got); err == nil {
		t.Fatal("expected error for unknown particle name")
	}
	if err := json.Unmarshal([]byte(`[1,2]`), &got); err == nil {
		t.Fatal("expected error for non-object JSON")
	}
}

func TestIdentifierJSONDropsZeroLevels(t *testing.T) {
	id := Identifier{microfluidic.TypeBead358: 0, microfluidic.TypeBead780: 1}
	data, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "3.58") {
		t.Fatalf("zero level serialized: %s", data)
	}
}

// The tests check the dictionary's shape through its enumeration; the
// product sizes it with PasswordSpaceSize and draws words with
// NewIdentifier.

// EnumerateIdentifiers lists the alphabet's full password dictionary in a
// stable order (every combination of per-type levels, excluding the empty
// word) — the §V "dictionary of unique identifiers". The dictionary size is
// PasswordSpaceSize(); callers should check it before materializing large
// alphabets.
func (a Alphabet) EnumerateIdentifiers() []Identifier {
	nTypes := len(a.Types)
	nLevels := len(a.LevelsPerUl)
	total := 1
	for i := 0; i < nTypes; i++ {
		total *= nLevels + 1
	}
	out := make([]Identifier, 0, total-1)
	for word := 1; word < total; word++ {
		id := make(Identifier, nTypes)
		w := word
		for _, t := range a.Types {
			lv := w % (nLevels + 1)
			w /= nLevels + 1
			if lv > 0 {
				id[t] = lv
			}
		}
		out = append(out, id)
	}
	return out
}

// MinLogSeparation returns the smallest pairwise distance between any two
// dictionary words in measured-concentration space, in log units per bead
// type (L∞ over types, with absent-vs-present counted as the log gap to the
// absence decision boundary at half the lowest level). Larger is better: it
// is the margin the measurement error must exceed to confuse two users.
func (a Alphabet) MinLogSeparation() float64 {
	ids := a.EnumerateIdentifiers()
	best := math.Inf(1)
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			d := a.logSeparation(ids[i], ids[j])
			if d < best {
				best = d
			}
		}
	}
	return best
}

// logSeparation is the L∞ log-distance between two identifiers.
func (a Alphabet) logSeparation(x, y Identifier) float64 {
	worstType := 0.0
	for _, t := range a.Types {
		lx, ly := x[t], y[t]
		if lx == ly {
			continue
		}
		var d float64
		switch {
		case lx == 0:
			d = math.Log(a.LevelsPerUl[ly-1] / (a.LevelsPerUl[0] / 2))
		case ly == 0:
			d = math.Log(a.LevelsPerUl[lx-1] / (a.LevelsPerUl[0] / 2))
		default:
			d = math.Abs(math.Log(a.LevelsPerUl[lx-1] / a.LevelsPerUl[ly-1]))
		}
		if d > worstType {
			worstType = d
		}
	}
	return worstType
}
