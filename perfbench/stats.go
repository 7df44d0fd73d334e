package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail read from fewer is one or two unlucky requests, not a property of the
// system.
const minBeyond = 10

// sortedCopy returns the samples in ascending order without touching the
// caller's slice.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// rank returns the 1-based nearest-rank position of quantile q in n samples.
func rank(q float64, n int) int {
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// quantile is the nearest-rank q-quantile (0 < q ≤ 1); NaN on no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rank(q, len(s))-1]
}

// median is quantile 0.5.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the q-quantile only when at least minBeyond samples lie
// beyond it, and refuses otherwise.
func tail(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g: no samples", q*100)
	}
	if beyond := n - rank(q, n); beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", q*100, n, beyond, minBeyond)
	}
	return quantile(xs, q), nil
}

// supportedTail returns the first of the given percentiles (highest first)
// that the sample count supports.
func supportedTail(xs []float64, qs ...float64) (q, v float64, ok bool) {
	for _, cand := range qs {
		if val, err := tail(xs, cand); err == nil {
			return cand, val, true
		}
	}
	return 0, 0, false
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msAll converts durations to milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
