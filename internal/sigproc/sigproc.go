// Package sigproc provides the digital signal processing primitives that the
// MedSen cloud analysis pipeline is built from: least-squares polynomial
// fitting, piecewise baseline detrending with overlapping windows,
// normalization, and threshold-based peak detection with amplitude, width and
// timestamp extraction (paper §VI-C).
//
// Signals in this package follow the paper's convention: the baseline of a
// healthy trace sits near 1.0 after normalization and particles appear as
// downward voltage drops (dips), so peak detection operates on
// (1 - detrended signal).
package sigproc

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Trace is a uniformly sampled single-channel signal.
type Trace struct {
	// Rate is the sampling rate in Hz (the paper samples at 450 Hz).
	Rate float64
	// Samples holds the signal values in acquisition order.
	Samples []float64
}

// Duration returns the trace length in seconds.
func (t Trace) Duration() float64 {
	if t.Rate <= 0 {
		return 0
	}
	return float64(len(t.Samples)) / t.Rate
}

// Peak describes one detected voltage drop.
type Peak struct {
	// Index is the sample index of the peak apex (maximum depth).
	Index int
	// Time is the apex time in seconds from the start of the trace.
	Time float64
	// Amplitude is the depth of the drop below the normalized baseline
	// (positive; a 0.4% drop reads as 0.004).
	Amplitude float64
	// Width is the full duration in seconds for which the drop exceeded
	// the detection threshold.
	Width float64
	// Start and End are the sample indices bounding the above-threshold
	// region (End is exclusive).
	Start, End int
}

// ErrBadFit reports a degenerate least-squares system.
var ErrBadFit = errors.New("sigproc: singular least-squares system")

// PolyFit fits a polynomial of the given degree to points (xs[i], ys[i]) by
// ordinary least squares, returning coefficients c[0] + c[1]x + ... The
// normal equations are solved with partial-pivot Gaussian elimination, which
// is ample for the low degrees (≤ 4) used in detrending.
func PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	var s FitScratch
	return s.PolyFit(xs, ys, degree)
}

// FitScratch holds reusable normal-equation storage for repeated PolyFit
// calls, eliminating the per-fit allocations of the package-level function.
// The zero value is ready to use. A scratch must not be used by more than
// one goroutine at a time.
type FitScratch struct {
	moments []float64
	b       []float64
	cells   []float64
	rows    [][]float64
	coeffs  []float64
}

// PolyFit is the package-level PolyFit with every intermediate drawn from
// the scratch. The returned coefficient slice is owned by the scratch and
// is valid only until the next call.
func (s *FitScratch) PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("sigproc: PolyFit length mismatch %d vs %d", len(xs), len(ys))
	}
	if degree < 0 {
		return nil, fmt.Errorf("sigproc: PolyFit negative degree %d", degree)
	}
	n := degree + 1
	if len(xs) < n {
		return nil, fmt.Errorf("sigproc: PolyFit needs at least %d points, got %d", n, len(xs))
	}

	// Build the normal equations A c = b where A[i][j] = Σ x^(i+j) and
	// b[i] = Σ y x^i.
	s.moments = growFloats(s.moments, 2*n-1, true)
	s.b = growFloats(s.b, n, true)
	moments, b := s.moments, s.b
	for k, x := range xs {
		p := 1.0
		for i := 0; i < 2*n-1; i++ {
			moments[i] += p
			if i < n {
				b[i] += ys[k] * p
			}
			p *= x
		}
	}
	s.cells = growFloats(s.cells, n*n, false)
	if cap(s.rows) < n {
		s.rows = make([][]float64, n)
	}
	a := s.rows[:n]
	for i := range a {
		a[i] = s.cells[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			a[i][j] = moments[i+j]
		}
	}
	s.coeffs = growFloats(s.coeffs, n, false)
	return solveLinear(a, b, s.coeffs)
}

// growFloats returns s resized to n, reallocating only when the capacity is
// insufficient, optionally zeroing the result.
func growFloats(s []float64, n int, zero bool) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	if zero {
		for i := range s {
			s[i] = 0
		}
	}
	return s
}

// solveLinear solves a dense linear system with partial pivoting, writing
// the solution into dst (which must have length len(b)). a and b are
// clobbered.
func solveLinear(a [][]float64, b, dst []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot selection.
		pivot := col
		for row := col + 1; row < n; row++ {
			if math.Abs(a[row][col]) > math.Abs(a[pivot][col]) {
				pivot = row
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, ErrBadFit
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]

		inv := 1 / a[col][col]
		for row := col + 1; row < n; row++ {
			factor := a[row][col] * inv
			if factor == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[row][k] -= factor * a[col][k]
			}
			b[row] -= factor * b[col]
		}
	}
	x := dst
	for row := n - 1; row >= 0; row-- {
		sum := b[row]
		for k := row + 1; k < n; k++ {
			sum -= a[row][k] * x[k]
		}
		x[row] = sum / a[row][row]
	}
	return x, nil
}

// PolyEval evaluates a polynomial with coefficients c[0] + c[1]x + ... at x
// using Horner's method.
func PolyEval(coeffs []float64, x float64) float64 {
	v := 0.0
	for i := len(coeffs) - 1; i >= 0; i-- {
		v = v*x + coeffs[i]
	}
	return v
}

// DetrendConfig controls the piecewise polynomial detrending of §VI-C.
type DetrendConfig struct {
	// Degree of the per-window polynomial. The paper found degree 2
	// optimal: higher degrees over-fit and deform peaks, lower degrees
	// under-fit long drifts.
	Degree int
	// Window is the sub-sequence length in samples. Long acquisitions are
	// split so that a quadratic tracks the local baseline drift.
	Window int
	// Overlap is the number of samples shared between consecutive
	// windows; it suppresses fit error at window edges.
	Overlap int
}

// DefaultDetrendConfig mirrors the paper's empirically chosen parameters:
// second-order fits over ~10 s windows (4500 samples at 450 Hz) with 10%
// overlap.
func DefaultDetrendConfig() DetrendConfig {
	return DetrendConfig{Degree: 2, Window: 4500, Overlap: 450}
}

func (c DetrendConfig) validate(traceLen int) error {
	if c.Degree < 0 {
		return fmt.Errorf("sigproc: detrend degree %d must be >= 0", c.Degree)
	}
	if c.Window <= c.Degree {
		return fmt.Errorf("sigproc: detrend window %d must exceed degree %d", c.Window, c.Degree)
	}
	if c.Overlap < 0 || c.Overlap >= c.Window {
		return fmt.Errorf("sigproc: detrend overlap %d must be in [0, window)", c.Overlap)
	}
	if traceLen == 0 {
		return errors.New("sigproc: empty trace")
	}
	return nil
}

// Detrend removes baseline drift by fitting a polynomial per overlapping
// window and dividing the signal by the fit (paper §VI-C). The returned
// trace has a baseline near 1.0. Overlapping regions are blended with a
// linear crossfade to avoid seams.
func Detrend(t Trace, cfg DetrendConfig) (Trace, error) {
	return DetrendWorkers(t, cfg, 1)
}

// appendDetrendPlan appends the [start, end) bounds of every fit window the
// piecewise detrend visits, in trace order, to plan.
func appendDetrendPlan(plan [][2]int, n int, cfg DetrendConfig) [][2]int {
	step := cfg.Window - cfg.Overlap
	for start := 0; start < n; start += step {
		end := start + cfg.Window
		if end > n {
			end = n
		}
		plan = append(plan, [2]int{start, end})
		if end == n {
			break
		}
	}
	return plan
}

// fitWindow fits one window's baseline polynomial. xs must hold the shared
// local coordinates (i/Window); the returned coefficients are owned by fit.
func fitWindow(t Trace, cfg DetrendConfig, start, end int, xs []float64, fit *FitScratch) ([]float64, error) {
	segLen := end - start
	degree := cfg.Degree
	if segLen <= degree {
		degree = segLen - 1
	}
	coeffs, err := fit.PolyFit(xs[:segLen], t.Samples[start:end], degree)
	if err != nil {
		return nil, fmt.Errorf("sigproc: detrending window [%d,%d): %w", start, end, err)
	}
	return coeffs, nil
}

// detrendWindowAccum fits one window and accumulates its crossfaded
// contribution (value·weight) and weight directly into out and weightSum —
// the fused serial path, with no per-window storage at all.
func detrendWindowAccum(t Trace, cfg DetrendConfig, start, end, n int, xs []float64, fit *FitScratch, out, weightSum []float64) error {
	coeffs, err := fitWindow(t, cfg, start, end, xs, fit)
	if err != nil {
		return err
	}
	segLen := end - start
	for i := 0; i < segLen; i++ {
		fitv := PolyEval(coeffs, xs[i])
		var v float64
		if math.Abs(fitv) < 1e-12 {
			v = 1
		} else {
			v = t.Samples[start+i] / fitv
		}
		// Crossfade weight: ramps up across the overlap region.
		w := 1.0
		if cfg.Overlap > 0 {
			if start > 0 && i < cfg.Overlap {
				w = (float64(i) + 1) / float64(cfg.Overlap+1)
			}
			if end < n && i >= segLen-cfg.Overlap {
				tail := float64(segLen-i) / float64(cfg.Overlap+1)
				if tail < w {
					w = tail
				}
			}
		}
		out[start+i] += v * w
		weightSum[start+i] += w
	}
	return nil
}

// detrendWindowInto is detrendWindowAccum for the parallel path: it writes
// the window's contribution and weight into caller-provided (arena) slices
// of the segment length, so workers never touch shared accumulators.
func detrendWindowInto(t Trace, cfg DetrendConfig, start, end, n int, xs []float64, fit *FitScratch, contrib, weight []float64) error {
	coeffs, err := fitWindow(t, cfg, start, end, xs, fit)
	if err != nil {
		return err
	}
	segLen := end - start
	for i := 0; i < segLen; i++ {
		fitv := PolyEval(coeffs, xs[i])
		var v float64
		if math.Abs(fitv) < 1e-12 {
			v = 1
		} else {
			v = t.Samples[start+i] / fitv
		}
		w := 1.0
		if cfg.Overlap > 0 {
			if start > 0 && i < cfg.Overlap {
				w = (float64(i) + 1) / float64(cfg.Overlap+1)
			}
			if end < n && i >= segLen-cfg.Overlap {
				tail := float64(segLen-i) / float64(cfg.Overlap+1)
				if tail < w {
					w = tail
				}
			}
		}
		contrib[i] = v * w
		weight[i] = w
	}
	return nil
}

// detrendScratch is the reusable working set of one DetrendWorkers call:
// the window plan, the shared local-coordinate axis, the weight accumulator,
// the parallel path's contribution arena, and one FitScratch per worker.
// Everything here is either fully overwritten or explicitly zeroed before
// use, so reuse cannot leak state between calls (see DESIGN.md §6).
type detrendScratch struct {
	plan   [][2]int
	xs     []float64
	weight []float64
	arena  []float64
	offs   []int
	errs   []error
	fits   []FitScratch
}

var detrendScratchPool = sync.Pool{New: func() any { return new(detrendScratch) }}

// DetrendWorkers is Detrend with the per-window polynomial fits spread
// across a bounded pool of worker goroutines (workers ≤ 0 selects
// GOMAXPROCS). Window fits are independent; their contributions are
// accumulated in trace order, so the output is bitwise identical to the
// serial path for any worker count. All intermediate storage is drawn from
// a pooled scratch: only the returned sample slice is freshly allocated.
func DetrendWorkers(t Trace, cfg DetrendConfig, workers int) (Trace, error) {
	if err := cfg.validate(len(t.Samples)); err != nil {
		return Trace{}, err
	}
	n := len(t.Samples)
	sc := detrendScratchPool.Get().(*detrendScratch)
	defer detrendScratchPool.Put(sc)
	sc.plan = appendDetrendPlan(sc.plan[:0], n, cfg)
	plan := sc.plan

	// One shared coordinate axis serves every window: xs[i] = i/Window is
	// independent of the window's start (local coordinates keep the normal
	// equations well conditioned for long traces).
	maxSeg := 0
	for _, wnd := range plan {
		if l := wnd[1] - wnd[0]; l > maxSeg {
			maxSeg = l
		}
	}
	sc.xs = growFloats(sc.xs, maxSeg, false)
	xs := sc.xs
	for i := range xs {
		xs[i] = float64(i) / float64(cfg.Window)
	}

	out := make([]float64, n) // returned to the caller: always fresh
	sc.weight = growFloats(sc.weight, n, true)
	weight := sc.weight

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(plan) {
		workers = len(plan)
	}
	if cap(sc.fits) < workers {
		sc.fits = make([]FitScratch, workers)
	}
	sc.fits = sc.fits[:cap(sc.fits)]

	if workers <= 1 {
		fit := &sc.fits[0]
		for _, wnd := range plan {
			if err := detrendWindowAccum(t, cfg, wnd[0], wnd[1], n, xs, fit, out, weight); err != nil {
				return Trace{}, err
			}
		}
	} else {
		// Arena-backed per-window contribution blocks: workers write
		// disjoint slices, the accumulate pass below reads them in trace
		// order.
		if cap(sc.offs) < len(plan) {
			sc.offs = make([]int, len(plan))
		}
		offs := sc.offs[:len(plan)]
		total := 0
		for wi, wnd := range plan {
			offs[wi] = total
			total += wnd[1] - wnd[0]
		}
		sc.arena = growFloats(sc.arena, 2*total, false)
		contribA, weightA := sc.arena[:total], sc.arena[total:2*total]
		if cap(sc.errs) < len(plan) {
			sc.errs = make([]error, len(plan))
		}
		errs := sc.errs[:len(plan)]
		for i := range errs {
			errs[i] = nil
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			fit := &sc.fits[k]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					wi := int(next.Add(1)) - 1
					if wi >= len(plan) {
						return
					}
					off, seg := offs[wi], plan[wi][1]-plan[wi][0]
					errs[wi] = detrendWindowInto(t, cfg, plan[wi][0], plan[wi][1], n, xs, fit,
						contribA[off:off+seg], weightA[off:off+seg])
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return Trace{}, err
			}
		}
		for wi, wnd := range plan {
			off := offs[wi]
			for i := 0; i < wnd[1]-wnd[0]; i++ {
				out[wnd[0]+i] += contribA[off+i]
				weight[wnd[0]+i] += weightA[off+i]
			}
		}
	}

	for i := range out {
		if weight[i] > 0 {
			out[i] /= weight[i]
		} else {
			out[i] = 1
		}
	}
	return Trace{Rate: t.Rate, Samples: out}, nil
}

// PeakConfig controls threshold peak detection on a detrended trace.
type PeakConfig struct {
	// Threshold is the minimum drop below baseline (on 1 - detrended) for
	// a sample to count as inside a peak.
	Threshold float64
	// MinWidth is the minimum number of consecutive above-threshold
	// samples for a region to qualify; it rejects single-sample noise
	// spikes.
	MinWidth int
	// MinSeparation merges regions closer than this many samples into a
	// single peak (0 disables merging).
	MinSeparation int
}

// DefaultPeakConfig matches the paper's setup: peaks of a fraction of a
// percent below baseline, at 450 Hz a ~20 ms transit spans ≥ 2 samples.
func DefaultPeakConfig() PeakConfig {
	return PeakConfig{Threshold: 0.0015, MinWidth: 2, MinSeparation: 2}
}

// DetectPeaks finds voltage drops in a detrended trace. The trace is assumed
// to have baseline ≈ 1.0; detection operates on depth = 1 - sample. The
// region and peak slices are sized exactly with counting pre-passes and the
// merge step rewrites the region slice in place, so a call performs at most
// two allocations regardless of how many threshold crossings the trace has.
func DetectPeaks(t Trace, cfg PeakConfig) []Peak {
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultPeakConfig().Threshold
	}
	if cfg.MinWidth < 1 {
		cfg.MinWidth = 1
	}
	// Counting pass: how many above-threshold regions are there?
	nRegions := 0
	inRegion := false
	for _, v := range t.Samples {
		if 1-v >= cfg.Threshold {
			if !inRegion {
				inRegion = true
				nRegions++
			}
		} else {
			inRegion = false
		}
	}
	if nRegions == 0 {
		return nil
	}
	regions := make([][2]int, 0, nRegions)
	inRegion = false
	start := 0
	for i, v := range t.Samples {
		depth := 1 - v
		if depth >= cfg.Threshold {
			if !inRegion {
				inRegion = true
				start = i
			}
		} else if inRegion {
			inRegion = false
			regions = append(regions, [2]int{start, i})
		}
	}
	if inRegion {
		regions = append(regions, [2]int{start, len(t.Samples)})
	}

	// Merge regions separated by fewer than MinSeparation samples: a
	// single transit can dip twice around its apex under noise. The merge
	// rewrites the slice in place.
	if cfg.MinSeparation > 0 && len(regions) > 1 {
		merged := regions[:1]
		for _, r := range regions[1:] {
			last := &merged[len(merged)-1]
			if r[0]-last[1] < cfg.MinSeparation {
				last[1] = r[1]
			} else {
				merged = append(merged, r)
			}
		}
		regions = merged
	}

	nPeaks := 0
	for _, r := range regions {
		if r[1]-r[0] >= cfg.MinWidth {
			nPeaks++
		}
	}
	if nPeaks == 0 {
		return nil
	}
	peaks := make([]Peak, 0, nPeaks)
	for _, r := range regions {
		if r[1]-r[0] < cfg.MinWidth {
			continue
		}
		apex := r[0]
		maxDepth := 0.0
		for i := r[0]; i < r[1]; i++ {
			if d := 1 - t.Samples[i]; d > maxDepth {
				maxDepth = d
				apex = i
			}
		}
		// Parabolic interpolation over the apex and its neighbours
		// recovers the sub-sample peak depth, removing most of the
		// sampling-phase jitter from the amplitude estimate.
		if apex > 0 && apex < len(t.Samples)-1 {
			dm := 1 - t.Samples[apex-1]
			d0 := maxDepth
			dp := 1 - t.Samples[apex+1]
			denom := 2*d0 - dm - dp
			if dm < d0 && dp < d0 && denom > 1e-15 {
				delta := (dp - dm) / (2 * denom)
				if delta > -1 && delta < 1 {
					refined := d0 + (dp-dm)*delta/4
					if refined > maxDepth {
						maxDepth = refined
					}
				}
			}
		}
		p := Peak{
			Index:     apex,
			Amplitude: maxDepth,
			Start:     r[0],
			End:       r[1],
		}
		if t.Rate > 0 {
			p.Time = float64(apex) / t.Rate
			p.Width = float64(r[1]-r[0]) / t.Rate
		}
		peaks = append(peaks, p)
	}
	return peaks
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, v := range xs {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// MinMax returns the smallest and largest values of xs. It panics on an
// empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("sigproc: MinMax on empty slice")
	}
	min, max = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// LowPassInPlace applies a single-pole IIR low-pass filter with the given
// cutoff frequency (Hz) to t.Samples, modeling the lock-in amplifier's
// 120 Hz output filter. Each step reads only the previous output and the
// current input, so the filter overwrites the samples and needs no output
// buffer; the acquisition render filters this way to avoid one trace-sized
// allocation per carrier. A non-positive cutoff or rate leaves the samples as
// they are.
func LowPassInPlace(t Trace, cutoffHz float64) {
	if cutoffHz <= 0 || t.Rate <= 0 || len(t.Samples) == 0 {
		return
	}
	dt := 1 / t.Rate
	rc := 1 / (2 * math.Pi * cutoffHz)
	alpha := dt / (rc + dt)
	s := t.Samples
	for i := 1; i < len(s); i++ {
		s[i] = s[i-1] + alpha*(s[i]-s[i-1])
	}
}

// SNR estimates the signal-to-noise ratio (in dB) of a detrended trace given
// the detected peaks: peak depth power over baseline residual power.
func SNR(t Trace, peaks []Peak) float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	inPeak := make([]bool, len(t.Samples))
	for _, p := range peaks {
		for i := p.Start; i < p.End && i < len(inPeak); i++ {
			inPeak[i] = true
		}
	}
	var signal, noise float64
	var nSig, nNoise int
	for i, v := range t.Samples {
		d := 1 - v
		if inPeak[i] {
			signal += d * d
			nSig++
		} else {
			noise += d * d
			nNoise++
		}
	}
	if nSig == 0 || nNoise == 0 || noise == 0 {
		return 0
	}
	return 10 * math.Log10((signal/float64(nSig))/(noise/float64(nNoise)))
}
