package lockin

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"medsen/internal/drbg"
	"medsen/internal/electrode"
	"medsen/internal/microfluidic"
)

// carrierStreams draws n values from each of nc carrier noise streams, seeded
// as RenderWorkers seeds them from the first 32-byte draw of rng.
func carrierStreams(t *testing.T, rng *drbg.DRBG, nc, n int) [][]float64 {
	t.Helper()
	var seed [32]byte
	if err := rng.Generate(seed[:]); err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, nc)
	for ci := range out {
		var src rand.ChaCha8
		src.Seed(carrierSeed(seed, ci))
		r := rand.New(&src)
		out[ci] = make([]float64, n)
		for i := range out[ci] {
			out[ci][i] = r.NormFloat64()
		}
	}
	return out
}

func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	return mean, variance / float64(len(xs)-1)
}

// ksStatistic returns the Kolmogorov–Smirnov distance between the empirical
// distribution of xs and N(0, 1).
func ksStatistic(xs []float64) float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	n := float64(len(sorted))
	d := 0.0
	for i, x := range sorted {
		cdf := 0.5 * math.Erfc(-x/math.Sqrt2)
		d = math.Max(d, math.Max(float64(i+1)/n-cdf, cdf-float64(i)/n))
	}
	return d
}

// Each carrier's noise stream of a 30 s capture (13,500 draws at 450 Hz)
// must be standard normal: mean and variance within four standard errors,
// and a KS distance under the α = 0.001 critical value 1.95/√n.
func TestCarrierNoiseStreamsAreStandardNormal(t *testing.T) {
	const n = 30 * 450
	nc := len(DefaultCarriersHz())
	sqrtN := math.Sqrt(n)
	for _, seed := range []uint64{1, 7, 2016} {
		for ci, xs := range carrierStreams(t, drbg.NewFromSeed(seed), nc, n) {
			mean, variance := meanVar(xs)
			if math.Abs(mean) > 4/sqrtN {
				t.Errorf("seed %d carrier %d: mean %.4f, want |mean| <= %.4f", seed, ci, mean, 4/sqrtN)
			}
			if bound := 4 * math.Sqrt2 / sqrtN; math.Abs(variance-1) > bound {
				t.Errorf("seed %d carrier %d: variance %.4f, want within %.4f of 1", seed, ci, variance, bound)
			}
			if d := ksStatistic(xs); d > 1.95/sqrtN {
				t.Errorf("seed %d carrier %d: KS distance %.4f, want <= %.4f", seed, ci, d, 1.95/sqrtN)
			}
		}
	}
}

// Carrier noise streams must be mutually uncorrelated: every pairwise
// correlation of a 30 s capture's streams stays within 4/√n.
func TestCarrierNoiseStreamsAreUncorrelated(t *testing.T) {
	const n = 30 * 450
	bound := 4 / math.Sqrt(n)
	for _, seed := range []uint64{1, 7, 2016} {
		streams := carrierStreams(t, drbg.NewFromSeed(seed), len(DefaultCarriersHz()), n)
		for i := range streams {
			mi, vi := meanVar(streams[i])
			for j := i + 1; j < len(streams); j++ {
				mj, vj := meanVar(streams[j])
				cov := 0.0
				for k := range streams[i] {
					cov += (streams[i][k] - mi) * (streams[j][k] - mj)
				}
				r := cov / float64(n-1) / math.Sqrt(vi*vj)
				if math.Abs(r) > bound {
					t.Errorf("seed %d carriers %d,%d: correlation %.4f, want |r| <= %.4f", seed, i, j, r, bound)
				}
			}
		}
	}
}

// noisyCapture returns the default carriers with a few blood-cell transits
// rendered into per-carrier pulse lists.
func noisyCapture() ([]float64, [][]electrode.Pulse) {
	carriers := DefaultCarriersHz()
	arr := electrode.MustArray(9)
	active := make([]bool, 9)
	for i := range active {
		active[i] = i%2 == 0
	}
	pulses := make([][]electrode.Pulse, len(carriers))
	for k := 0; k < 20; k++ {
		tr := microfluidic.Transit{Type: microfluidic.TypeBloodCell, EntryS: 0.3 + 0.45*float64(k), VelocityUmS: 2200}
		for ci, f := range carriers {
			pulses[ci] = append(pulses[ci], arr.PulsesForTransit(tr, f, active, nil, 1)...)
		}
	}
	return carriers, pulses
}

// Every worker count must render the same noisy capture bit for bit: each
// carrier's noise comes from its own stream, whichever worker draws it.
func TestRenderWorkersBitwiseIdentical(t *testing.T) {
	carriers, pulses := noisyCapture()
	cfg := DefaultConfig()
	serial, err := RenderWorkers(carriers, pulses, 10, cfg, drbg.NewFromSeed(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := RenderWorkers(carriers, pulses, 10, cfg, drbg.NewFromSeed(3), workers)
		if err != nil {
			t.Fatal(err)
		}
		for ci := range serial.Traces {
			want, have := serial.Traces[ci].Samples, got.Traces[ci].Samples
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(have[i]) {
					t.Fatalf("workers %d carrier %d sample %d: %v, serial %v", workers, ci, i, have[i], want[i])
				}
			}
		}
	}
}

// raceEnabled is set in race_test.go when the race detector is on.
var raceEnabled bool

// A noisy serial render allocates its three results (carrier list, trace
// headers, one sample backing array), the carrier closure and the two
// variables it shares (acquisition seed, worker count), and one ChaCha8
// noise stream per carrier; the drift baseline comes from the pool.
func TestRenderNoisyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items, so the pooled baseline reallocates")
	}
	carriers, pulses := noisyCapture()
	cfg := DefaultConfig()
	rng := drbg.NewFromSeed(5)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := RenderWorkers(carriers, pulses, 10, cfg, rng, 1); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(6 + len(carriers)); allocs > want {
		t.Fatalf("noisy serial render: %v allocs/run, want <= %v", allocs, want)
	}
}
