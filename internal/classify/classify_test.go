package classify

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"medsen/internal/drbg"
	"medsen/internal/microfluidic"
)

var testCarriers = []float64{500e3, 1000e3, 2000e3, 2500e3, 3000e3}

// synthObservations draws noisy feature vectors around each particle type's
// physical spectrum, mimicking detected-peak amplitudes.
func synthObservations(nPerType int, cv float64, seed uint64) []Observation {
	rng := drbg.NewFromSeed(seed)
	var obs []Observation
	for _, typ := range microfluidic.AllTypes() {
		props := microfluidic.PropertiesOf(typ)
		for i := 0; i < nPerType; i++ {
			// A particle's overall responsiveness varies (size
			// spread), plus per-channel measurement noise.
			scale := 1 + cv*rng.NormFloat64()
			if scale < 0.3 {
				scale = 0.3
			}
			f := make(Features, len(testCarriers))
			for d, c := range testCarriers {
				noise := 1 + (cv/2)*rng.NormFloat64()
				f[d] = props.AmplitudeAt(c) * scale * noise
			}
			obs = append(obs, Observation{Type: typ, Features: f})
		}
	}
	return obs
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, synthObservations(2, 0.1, 1)); err == nil {
		t.Error("expected error for no carriers")
	}
	if _, err := Train(testCarriers, nil); err == nil {
		t.Error("expected error for no observations")
	}
	bad := []Observation{{Type: microfluidic.TypeBloodCell, Features: Features{1}}}
	if _, err := Train(testCarriers, bad); err == nil {
		t.Error("expected error for wrong feature width")
	}
}

func TestTrainedModelSeparatesClusters(t *testing.T) {
	// Fig. 16: the three populations form cleanly separable clusters.
	train := synthObservations(200, 0.12, 2)
	model, err := Train(testCarriers, train)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	test := synthObservations(200, 0.12, 3)
	acc, err := model.Accuracy(test)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	if acc < 0.95 {
		t.Fatalf("accuracy %.3f, want >= 0.95", acc)
	}
}

func TestReferenceModelClassifiesCleanSpectra(t *testing.T) {
	model, err := ReferenceModel(testCarriers)
	if err != nil {
		t.Fatalf("ReferenceModel: %v", err)
	}
	for _, typ := range microfluidic.AllTypes() {
		props := microfluidic.PropertiesOf(typ)
		f := make(Features, len(testCarriers))
		for d, c := range testCarriers {
			f[d] = props.AmplitudeAt(c)
		}
		res, err := model.Classify(f)
		if err != nil {
			t.Fatalf("Classify: %v", err)
		}
		if res.Type != typ {
			t.Errorf("clean %v classified as %v", typ, res.Type)
		}
		if res.Distance > 0.01 {
			t.Errorf("clean %v distance %v, want ~0", typ, res.Distance)
		}
		if res.Margin <= 0 {
			t.Errorf("clean %v margin %v, want positive", typ, res.Margin)
		}
	}
}

func TestReferenceModelNoisyAccuracy(t *testing.T) {
	model, err := ReferenceModel(testCarriers)
	if err != nil {
		t.Fatal(err)
	}
	obs := synthObservations(300, 0.12, 5)
	acc, err := model.Accuracy(obs)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("reference-model accuracy %.3f, want >= 0.9", acc)
	}
}

func TestFrequencyShapeMattersNotScale(t *testing.T) {
	// A blood cell reading 1.8× too strong overall must still classify as
	// blood (its ≥2 MHz roll-off identifies it), not as a 7.8 µm bead of
	// similar low-frequency amplitude.
	model, err := ReferenceModel(testCarriers)
	if err != nil {
		t.Fatal(err)
	}
	props := microfluidic.PropertiesOf(microfluidic.TypeBloodCell)
	f := make(Features, len(testCarriers))
	for d, c := range testCarriers {
		f[d] = props.AmplitudeAt(c) * 1.8
	}
	res, err := model.Classify(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Type != microfluidic.TypeBloodCell {
		t.Fatalf("scaled blood cell classified as %v", res.Type)
	}
}

func TestClassifyValidation(t *testing.T) {
	model, err := ReferenceModel(testCarriers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Classify(Features{1, 2}); err == nil {
		t.Error("expected error for wrong feature width")
	}
	empty := &Model{CarriersHz: testCarriers}
	if _, err := empty.Classify(make(Features, len(testCarriers))); err == nil {
		t.Error("expected error for empty model")
	}
}

func TestZeroAndNegativeFeaturesHandled(t *testing.T) {
	model, err := ReferenceModel(testCarriers)
	if err != nil {
		t.Fatal(err)
	}
	f := Features{0, -1, 0, 0, 0}
	if _, err := model.Classify(f); err != nil {
		t.Fatalf("Classify on degenerate features: %v", err)
	}
}

func TestCountByType(t *testing.T) {
	model, err := ReferenceModel(testCarriers)
	if err != nil {
		t.Fatal(err)
	}
	var features []Features
	obs := synthObservations(50, 0.08, 9)
	wantMin := map[microfluidic.Type]int{}
	for _, o := range obs {
		features = append(features, o.Features)
		wantMin[o.Type]++
	}
	counts, err := model.CountByType(features)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(features) {
		t.Fatalf("counted %d of %d", total, len(features))
	}
	for typ, want := range wantMin {
		got := counts[typ]
		if math.Abs(float64(got-want)) > 0.1*float64(want)+2 {
			t.Errorf("%v: counted %d, want ~%d", typ, got, want)
		}
	}
}

func TestAccuracyValidation(t *testing.T) {
	model, err := ReferenceModel(testCarriers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Accuracy(nil); err == nil {
		t.Error("expected error for empty observations")
	}
}

func TestTrainedCentroidsNearPhysicalSpectra(t *testing.T) {
	train := synthObservations(500, 0.1, 11)
	model, err := Train(testCarriers, train)
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range microfluidic.AllTypes() {
		props := microfluidic.PropertiesOf(typ)
		c := model.Centroids[typ]
		if c == nil {
			t.Fatalf("no centroid for %v", typ)
		}
		for d, carrier := range testCarriers {
			want := math.Log(props.AmplitudeAt(carrier))
			if math.Abs(c[d]-want) > 0.08 {
				t.Errorf("%v centroid dim %d = %v, want ~%v", typ, d, c[d], want)
			}
		}
	}
}

// The tests fit and score models from labeled observations; the product
// deploys ReferenceModel, so the trainer lives here.

// Observation is one labeled training point.
type Observation struct {
	Type     microfluidic.Type
	Features Features
}

func logVec(f Features) []float64 {
	out := make([]float64, len(f))
	for i, v := range f {
		if v <= 0 {
			out[i] = minLogAmplitude
			continue
		}
		lv := math.Log(v)
		if lv < minLogAmplitude {
			lv = minLogAmplitude
		}
		out[i] = lv
	}
	return out
}

// Train fits a nearest-centroid model from labeled observations.
func Train(carriersHz []float64, obs []Observation) (*Model, error) {
	if len(carriersHz) == 0 {
		return nil, errors.New("classify: no carriers")
	}
	if len(obs) == 0 {
		return nil, errors.New("classify: no observations")
	}
	sums := make(map[microfluidic.Type][]float64)
	counts := make(map[microfluidic.Type]int)
	for i, o := range obs {
		if len(o.Features) != len(carriersHz) {
			return nil, fmt.Errorf("classify: observation %d has %d features, want %d",
				i, len(o.Features), len(carriersHz))
		}
		lv := logVec(o.Features)
		if _, ok := sums[o.Type]; !ok {
			sums[o.Type] = make([]float64, len(carriersHz))
		}
		for d, v := range lv {
			sums[o.Type][d] += v
		}
		counts[o.Type]++
	}
	m := &Model{
		CarriersHz: append([]float64(nil), carriersHz...),
		Centroids:  make(map[microfluidic.Type][]float64, len(sums)),
		Spread:     make(map[microfluidic.Type][]float64, len(sums)),
	}
	for typ, sum := range sums {
		c := make([]float64, len(carriersHz))
		for d := range c {
			c[d] = sum[d] / float64(counts[typ])
		}
		m.Centroids[typ] = c
	}
	// Second pass for spreads.
	sq := make(map[microfluidic.Type][]float64)
	for _, o := range obs {
		lv := logVec(o.Features)
		if _, ok := sq[o.Type]; !ok {
			sq[o.Type] = make([]float64, len(carriersHz))
		}
		for d, v := range lv {
			diff := v - m.Centroids[o.Type][d]
			sq[o.Type][d] += diff * diff
		}
	}
	for typ, s := range sq {
		sd := make([]float64, len(carriersHz))
		for d := range sd {
			sd[d] = math.Sqrt(s[d] / float64(counts[typ]))
		}
		m.Spread[typ] = sd
	}
	return m, nil
}

// Accuracy scores the model against labeled observations, returning the
// fraction classified correctly.
func (m *Model) Accuracy(obs []Observation) (float64, error) {
	if len(obs) == 0 {
		return 0, errors.New("classify: no observations")
	}
	correct := 0
	for _, o := range obs {
		res, err := m.Classify(o.Features)
		if err != nil {
			return 0, err
		}
		if res.Type == o.Type {
			correct++
		}
	}
	return float64(correct) / float64(len(obs)), nil
}
