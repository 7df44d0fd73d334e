package cipher

import (
	"fmt"
	"math"

	"medsen/internal/drbg"
	"medsen/internal/electrode"
)

// Information-theoretic security analysis of the peak-count channel. §IV-A
// argues the scheme is "comparable to the perfectly secret one-time pad";
// this file quantifies the claim for the practical epoch scheme: given the
// ciphertext peak count the analyst observes, how much uncertainty remains
// about the true particle count?

// CountPosterior is the analyst's Bayesian posterior over the true count
// after observing a ciphertext peak count, assuming the analyst knows the
// cipher parameters (Kerckhoffs) but not the key.
type CountPosterior struct {
	// Probs maps candidate true counts to posterior probability.
	Probs map[int]float64
	// ObservedPeaks is the conditioning observation.
	ObservedPeaks int
}

// EntropyBits returns the Shannon entropy of the posterior — the analyst's
// remaining uncertainty in bits.
func (p CountPosterior) EntropyBits() float64 {
	h := 0.0
	for _, pr := range p.Probs {
		if pr > 0 {
			h -= pr * math.Log2(pr)
		}
	}
	return h
}

// factorDistribution computes the distribution of the peak multiplication
// factor under the key-generation process by Monte-Carlo over epoch keys.
func factorDistribution(p Params, arr electrode.Array, samples int, rng *drbg.DRBG) map[int]float64 {
	counts := make(map[int]int)
	for i := 0; i < samples; i++ {
		k := generateEpoch(p, rng)
		counts[arr.PeaksPerParticle(k.Active)]++
	}
	dist := make(map[int]float64, len(counts))
	for f, n := range counts {
		dist[f] = float64(n) / float64(samples)
	}
	return dist
}

// FactorEntropyBits returns the Shannon entropy (bits) of the peak
// multiplication factor under the key-generation process — the per-particle
// confusion a design injects into the ciphertext.
func FactorEntropyBits(p Params, arr electrode.Array, rng *drbg.DRBG) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if rng == nil {
		return 0, fmt.Errorf("cipher: nil rng")
	}
	const mcSamples = 20000
	dist := factorDistribution(p, arr, mcSamples, rng)
	h := 0.0
	for _, pr := range dist {
		if pr > 0 {
			h -= pr * math.Log2(pr)
		}
	}
	return h, nil
}
