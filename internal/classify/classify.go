// Package classify separates particle populations — blood cells versus the
// synthetic password beads — from multi-frequency peak amplitudes, the
// feature space of Figs. 15 and 16: "All those impedance measurements for
// different bead types at different frequencies are considered as features.
// MedSen uses the features for its classification procedures to distinguish
// between different particles."
//
// The classifier is a nearest-centroid model over log-amplitudes. Working in
// log space makes the decision boundary insensitive to an overall amplitude
// scale (a particle twice as responsive moves parallel to the cluster axis)
// while preserving the frequency-response *shape* that distinguishes blood
// cells (which roll off above ~2 MHz) from solid beads (which do not).
package classify

import (
	"errors"
	"fmt"
	"math"

	"medsen/internal/microfluidic"
)

// Features is a vector of peak amplitudes, index-aligned with the model's
// carrier list.
type Features []float64

// Model is a nearest-centroid classifier in log-amplitude space.
type Model struct {
	// CarriersHz lists the feature dimensions (excitation frequencies).
	CarriersHz []float64
	// Centroids holds per-class mean log-amplitude vectors.
	Centroids map[microfluidic.Type][]float64
	// Spread holds per-class per-dimension standard deviations of the
	// log-amplitudes, used for confidence scoring (0 entries fall back to
	// a global floor).
	Spread map[microfluidic.Type][]float64
}

// minLogAmplitude guards against log(0) for empty or clipped features.
const minLogAmplitude = -20

// ReferenceModel builds a physics-calibrated model directly from the
// particle dielectric spectra — the deployment path when no labeled capture
// is available (the centroids are where Fig. 15 says the populations sit).
func ReferenceModel(carriersHz []float64) (*Model, error) {
	if len(carriersHz) == 0 {
		return nil, errors.New("classify: no carriers")
	}
	m := &Model{
		CarriersHz: append([]float64(nil), carriersHz...),
		Centroids:  make(map[microfluidic.Type][]float64),
		Spread:     make(map[microfluidic.Type][]float64),
	}
	for _, typ := range microfluidic.AllTypes() {
		props := microfluidic.PropertiesOf(typ)
		c := make([]float64, len(carriersHz))
		sd := make([]float64, len(carriersHz))
		for d, f := range carriersHz {
			c[d] = math.Log(props.AmplitudeAt(f))
			// Biological and instrumental variability: ~15%
			// amplitude CV, wider for cells than rigid beads.
			sd[d] = 0.15
			if typ == microfluidic.TypeBloodCell {
				sd[d] = 0.25
			}
		}
		m.Centroids[typ] = c
		m.Spread[typ] = sd
	}
	return m, nil
}

// Result is one classification outcome.
type Result struct {
	// Type is the winning class.
	Type microfluidic.Type
	// Distance is the normalized distance to the winning centroid
	// (in pooled standard deviations per dimension).
	Distance float64
	// Margin is the runner-up distance minus the winner distance; small
	// margins mark ambiguous calls.
	Margin float64
}

// Classify assigns features to the nearest centroid.
func (m *Model) Classify(f Features) (Result, error) {
	if len(f) != len(m.CarriersHz) {
		return Result{}, fmt.Errorf("classify: got %d features, want %d", len(f), len(m.CarriersHz))
	}
	if len(m.Centroids) == 0 {
		return Result{}, errors.New("classify: empty model")
	}
	// Log features land in a stack buffer: the feature space is the
	// carrier set (8 dimensions on the default device) and Classify runs
	// once per detected peak, so a heap slice per call is pure overhead.
	var lvBuf [16]float64
	var lv []float64
	if len(f) <= len(lvBuf) {
		lv = lvBuf[:len(f)]
	} else {
		lv = make([]float64, len(f))
	}
	for i, v := range f {
		if v <= 0 {
			lv[i] = minLogAmplitude
			continue
		}
		w := math.Log(v)
		if w < minLogAmplitude {
			w = minLogAmplitude
		}
		lv[i] = w
	}

	// Track winner and runner-up directly using the exact ordering the
	// previous sort applied — ascending distance, ties broken by type — so
	// the call and its margin are unchanged for any map iteration order
	// while the per-call score slice and sort closure disappear.
	var (
		bestTyp, secondTyp   microfluidic.Type
		bestDist, secondDist float64
		haveBest, haveSecond bool
	)
	for typ, c := range m.Centroids {
		sum := 0.0
		for d := range c {
			sd := 0.2
			if sp := m.Spread[typ]; len(sp) > d && sp[d] > 1e-6 {
				sd = sp[d]
			}
			z := (lv[d] - c[d]) / sd
			sum += z * z
		}
		dist := math.Sqrt(sum / float64(len(c)))
		switch {
		case !haveBest || dist < bestDist || (dist == bestDist && typ < bestTyp):
			if haveBest {
				secondTyp, secondDist, haveSecond = bestTyp, bestDist, true
			}
			bestTyp, bestDist, haveBest = typ, dist, true
		case !haveSecond || dist < secondDist || (dist == secondDist && typ < secondTyp):
			secondTyp, secondDist, haveSecond = typ, dist, true
		}
	}
	res := Result{Type: bestTyp, Distance: bestDist}
	if haveSecond {
		res.Margin = secondDist - bestDist
	} else {
		res.Margin = math.Inf(1)
	}
	return res, nil
}

// CountByType classifies a batch of feature vectors and tallies the calls.
func (m *Model) CountByType(features []Features) (map[microfluidic.Type]int, error) {
	out := make(map[microfluidic.Type]int)
	for i, f := range features {
		res, err := m.Classify(f)
		if err != nil {
			return nil, fmt.Errorf("classify: feature %d: %w", i, err)
		}
		out[res.Type]++
	}
	return out, nil
}
