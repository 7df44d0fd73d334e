package cipher

import (
	"fmt"
	"math"
	"testing"

	"medsen/internal/drbg"
	"medsen/internal/electrode"
)

func nineParams() Params {
	p := DefaultParams()
	p.NumElectrodes = 9
	p.MinActive = 2
	return p
}

func TestPosteriorSpansManyCounts(t *testing.T) {
	arr := electrode.MustArray(9)
	// 240 peaks factors as 240/f for many feasible f ∈ [3, 17].
	post, err := PosteriorOverCounts(nineParams(), arr, 240, 300, drbg.NewFromSeed(1))
	if err != nil {
		t.Fatalf("PosteriorOverCounts: %v", err)
	}
	if len(post.Probs) < 4 {
		t.Fatalf("posterior support %d counts, want several candidates", len(post.Probs))
	}
	if h := post.EntropyBits(); h < 1.5 {
		t.Fatalf("posterior entropy %.2f bits, want > 1.5 (analyst stays uncertain)", h)
	}
	// Probabilities sum to 1.
	sum := 0.0
	for _, pr := range post.Probs {
		sum += pr
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("posterior sums to %v", sum)
	}
}

func TestPosteriorMAPAndInterval(t *testing.T) {
	arr := electrode.MustArray(9)
	post, err := PosteriorOverCounts(nineParams(), arr, 240, 300, drbg.NewFromSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	mapCount, mapP := post.MAP()
	if mapCount < 1 || mapP <= 0 || mapP > 1 {
		t.Fatalf("MAP = %d @ %v", mapCount, mapP)
	}
	lo, hi := post.CredibleInterval(0.9)
	if lo > hi || lo < 1 {
		t.Fatalf("credible interval [%d, %d]", lo, hi)
	}
	// The 90% interval should be wide relative to its center — the true
	// count is not pinned down.
	if hi-lo == 0 {
		t.Fatal("credible interval collapsed to a point")
	}
}

func TestPosteriorPlaintextModeIsCertain(t *testing.T) {
	// With exactly one electrode always active (factor 1 with certainty)
	// the posterior must collapse: the analyst learns the count.
	p := nineParams()
	p.MinActive = 1
	arr := electrode.MustArray(1) // single-output device: factor always 1
	pp := p
	pp.NumElectrodes = 1
	post, err := PosteriorOverCounts(pp, arr, 42, 100, drbg.NewFromSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	mapCount, mapP := post.MAP()
	if mapCount != 42 || mapP < 0.999 {
		t.Fatalf("plaintext posterior should be certain: MAP %d @ %v", mapCount, mapP)
	}
	if h := post.EntropyBits(); h > 0.01 {
		t.Fatalf("plaintext entropy %v, want ~0", h)
	}
}

func TestPosteriorValidation(t *testing.T) {
	arr := electrode.MustArray(9)
	if _, err := PosteriorOverCounts(nineParams(), arr, 0, 100, drbg.NewFromSeed(1)); err == nil {
		t.Error("expected error for zero peaks")
	}
	if _, err := PosteriorOverCounts(nineParams(), arr, 10, 0, drbg.NewFromSeed(1)); err == nil {
		t.Error("expected error for zero max count")
	}
	if _, err := PosteriorOverCounts(nineParams(), arr, 10, 100, nil); err == nil {
		t.Error("expected error for nil rng")
	}
	if _, err := PosteriorOverCounts(Params{}, arr, 10, 100, drbg.NewFromSeed(1)); err == nil {
		t.Error("expected error for invalid params")
	}
}

func TestPosteriorEmptySupport(t *testing.T) {
	// A peak count no (count × feasible factor) can produce: prime above
	// max feasible factor with maxCount 1.
	arr := electrode.MustArray(9)
	post, err := PosteriorOverCounts(nineParams(), arr, 97, 1, drbg.NewFromSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(post.Probs) != 0 {
		t.Fatalf("expected empty posterior, got %v", post.Probs)
	}
	if lo, hi := post.CredibleInterval(0.9); lo != 0 || hi != 0 {
		t.Fatalf("empty interval = [%d,%d]", lo, hi)
	}
}

// The epoch scheme's posterior is the reference TestPerCellPosteriorShape
// holds PerCellPosterior against; MAP and CredibleInterval summarize a
// posterior for these tests.

// MAP returns the maximum-a-posteriori count and its probability.
func (p CountPosterior) MAP() (int, float64) {
	best, bestP := 0, -1.0
	for c, pr := range p.Probs {
		if pr > bestP || (pr == bestP && c < best) {
			best, bestP = c, pr
		}
	}
	return best, bestP
}

// CredibleInterval returns the smallest [lo, hi] count range holding at
// least the given posterior mass.
func (p CountPosterior) CredibleInterval(mass float64) (lo, hi int) {
	if len(p.Probs) == 0 {
		return 0, 0
	}
	minC, maxC := math.MaxInt, math.MinInt
	for c := range p.Probs {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	best := math.MaxInt
	for a := minC; a <= maxC; a++ {
		sum := 0.0
		for b := a; b <= maxC; b++ {
			sum += p.Probs[b]
			if sum >= mass {
				if b-a < best {
					best = b - a
					lo, hi = a, b
				}
				break
			}
		}
	}
	return lo, hi
}

// PosteriorOverCounts computes the analyst's posterior over the true
// particle count given an observed ciphertext peak count, for a
// single-epoch observation window.
//
// Model: the true count N is uniform over [1, maxCount] (the analyst's
// prior); all N particles cross under one epoch key with multiplication
// factor F drawn from the key distribution; the observation is peaks =
// N × F. The posterior is P(N | peaks) ∝ Σ_F P(F)·[N·F = peaks].
func PosteriorOverCounts(
	p Params,
	arr electrode.Array,
	observedPeaks int,
	maxCount int,
	rng *drbg.DRBG,
) (CountPosterior, error) {
	if err := p.Validate(); err != nil {
		return CountPosterior{}, err
	}
	if observedPeaks < 1 || maxCount < 1 {
		return CountPosterior{}, fmt.Errorf("cipher: bad posterior inputs peaks=%d max=%d",
			observedPeaks, maxCount)
	}
	if rng == nil {
		return CountPosterior{}, fmt.Errorf("cipher: nil rng")
	}
	const mcSamples = 20000
	factorDist := factorDistribution(p, arr, mcSamples, rng)

	post := CountPosterior{ObservedPeaks: observedPeaks, Probs: make(map[int]float64)}
	total := 0.0
	for n := 1; n <= maxCount; n++ {
		if observedPeaks%n != 0 {
			continue
		}
		f := observedPeaks / n
		if pr, ok := factorDist[f]; ok && pr > 0 {
			post.Probs[n] = pr
			total += pr
		}
	}
	if total == 0 {
		return post, nil
	}
	for n := range post.Probs {
		post.Probs[n] /= total
	}
	return post, nil
}
