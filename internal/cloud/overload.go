package cloud

// Overload protection for the upload path. The ROADMAP's north star is a
// service under fleet load — millions of dongles uploading captures — and a
// fixed queue-depth 429 is not enough admission control for that: one chatty
// client can starve everyone else, and a queue that is technically not full
// can still represent minutes of wait once analyses slow down. Two layers
// close those gaps:
//
//   - A per-client token bucket (ServiceConfig.RateLimit/RateBurst) bounds
//     each caller's sustained submit rate, answering 429 rate_limited with a
//     Retry-After computed from the bucket deficit.
//   - An adaptive load shedder (ServiceConfig.MaxQueueWait) estimates how
//     long a newly enqueued job would wait for a worker — queue depth × the
//     sliding-window mean of recent job latencies ÷ worker count — and sheds
//     async admissions with 429 overloaded once the estimate passes the
//     limit. Interactive sync submits ride a priority lane (shed only past
//     syncShedFactor× the limit) and authentication is never shed, so batch
//     uploads degrade first.

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// tokenBucket is one client's refillable submit budget.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// maxRateBuckets bounds the per-client bucket map: past it, fully refilled
// (i.e. long-idle) buckets are swept before a new client is admitted, so a
// scan of spoofed client ids cannot grow the map without bound.
const maxRateBuckets = 65536

// rateLimiter is a keyed token-bucket limiter: rate tokens accrue per second
// up to burst, one submit spends one token.
type rateLimiter struct {
	rate  float64
	burst float64
	max   int // bucket-map cap; maxRateBuckets outside tests
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

func newRateLimiter(rate float64, burst int, now func() time.Time) *rateLimiter {
	return &rateLimiter{
		rate:    rate,
		burst:   float64(burst),
		max:     maxRateBuckets,
		now:     now,
		buckets: make(map[string]*tokenBucket),
	}
}

// allow spends one token from key's bucket. When the bucket is empty it
// returns false and how long until the next token accrues.
func (l *rateLimiter) allow(key string) (bool, time.Duration) {
	return l.allowN(key, 1)
}

// allowN spends n tokens from key's bucket — the batch endpoint charges its
// item count so a batch weighs the same as the equivalent single submits. The
// charge is clamped to the bucket capacity so a maximum-size batch costs at
// most one full burst and can always eventually be admitted.
func (l *rateLimiter) allowN(key string, n int) (bool, time.Duration) {
	need := float64(n)
	if need < 1 {
		need = 1
	}
	if need > l.burst {
		need = l.burst
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= l.max {
			l.sweepLocked(now)
			if len(l.buckets) >= l.max {
				// Every bucket is mid-refill (a sustained flood of spoofed
				// ids keeps them all active), so the sweep reclaimed nothing.
				// The cap still holds: evict the longest-idle buckets. An
				// evicted client restarts at full burst on its next request
				// — a bounded courtesy, cheaper than an unbounded map.
				l.evictOldestLocked()
			}
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
		b.tokens = math.Min(l.burst, b.tokens+elapsed*l.rate)
		b.last = now
	}
	if b.tokens >= need {
		b.tokens -= need
		return true, 0
	}
	return false, time.Duration(math.Ceil((need-b.tokens)/l.rate)) * time.Second
}

// sweepLocked drops buckets that have fully refilled — clients idle long
// enough to be indistinguishable from new ones.
func (l *rateLimiter) sweepLocked(now time.Time) {
	for k, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, k)
		}
	}
}

// evictOldestLocked drops the buckets with the oldest last-touch times. It
// evicts a batch (1/64th of the cap, at least one) rather than a single
// bucket so the O(n log n) scan amortizes to O(log n) per admitted client
// under a sustained spoofed-id flood, instead of running on every insert.
func (l *rateLimiter) evictOldestLocked() {
	n := l.max / 64
	if n < 1 {
		n = 1
	}
	type idle struct {
		key  string
		last time.Time
	}
	order := make([]idle, 0, len(l.buckets))
	for k, b := range l.buckets {
		order = append(order, idle{k, b.last})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].last.Before(order[j].last) })
	if n > len(order) {
		n = len(order)
	}
	for _, e := range order[:n] {
		delete(l.buckets, e.key)
	}
}

// clientKey identifies the caller for rate limiting. An authenticated
// request is keyed by its API key id — an identity the caller cannot spoof
// or rotate for free, unlike the X-Client-Id header the limiter originally
// trusted (any client could mint a fresh header value per request and dodge
// the bucket entirely). Anonymous requests (auth disabled) fall back to the
// remote host — coarse, but enough to stop one chatty device from starving
// the rest.
func (s *Service) clientKey(r *http.Request) string {
	if p := s.principal(r); p.KeyID != "" {
		return "key:" + p.KeyID
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return "addr:" + host
	}
	return "addr:" + r.RemoteAddr
}

// queueEstimatorWindow is the sliding window of job latencies the shedder
// averages over; small enough to track load shifts within a few dozen jobs.
const queueEstimatorWindow = 32

// queueEstimator keeps the sliding-window mean of recent job latencies.
// Guarded by Service.mu.
type queueEstimator struct {
	samples [queueEstimatorWindow]time.Duration
	n       int
	idx     int
	sum     time.Duration
}

// observe records one completed job's latency (pickup to terminal state).
func (e *queueEstimator) observe(d time.Duration) {
	if d < 0 {
		return
	}
	if e.n == len(e.samples) {
		e.sum -= e.samples[e.idx]
	} else {
		e.n++
	}
	e.samples[e.idx] = d
	e.sum += d
	e.idx = (e.idx + 1) % len(e.samples)
}

// mean returns the window average, 0 before any sample.
func (e *queueEstimator) mean() time.Duration {
	if e.n == 0 {
		return 0
	}
	return e.sum / time.Duration(e.n)
}

// syncShedFactor is the priority lane: interactive sync submits are shed
// only once the estimated queue wait passes this multiple of MaxQueueWait,
// so batch (async) uploads always degrade first.
const syncShedFactor = 4

// estQueueWaitLocked is the shedder's current wait estimate. Zero until the
// estimator has a sample — a cold service never sheds; the queue-depth 429
// backstops it. Callers must hold s.mu (read or write).
func (s *Service) estQueueWaitLocked() time.Duration {
	if s.workers <= 0 {
		return 0
	}
	mean := s.queueEst.mean()
	if mean == 0 {
		return 0
	}
	return time.Duration(len(s.queue)) * mean / time.Duration(s.workers)
}

// shedLocked decides whether a submission in the given lane must be shed,
// returning the Retry-After hint when it is. Callers must hold s.mu for
// writing (it counts the shed).
func (s *Service) shedLocked(syncLane bool) (time.Duration, bool) {
	if s.maxQueueWait <= 0 {
		return 0, false
	}
	limit := s.maxQueueWait
	if syncLane {
		limit *= syncShedFactor
	}
	wait := s.estQueueWaitLocked()
	if wait <= limit {
		return 0, false
	}
	s.metrics.Shed++
	return shedRetryAfter(wait), true
}

// shedRetryAfter turns a wait estimate into a Retry-After hint: half the
// estimated wait (the queue drains while the client backs off), clamped to
// [1s, 30s].
func shedRetryAfter(wait time.Duration) time.Duration {
	ra := wait / 2
	if ra < time.Second {
		ra = time.Second
	}
	if ra > 30*time.Second {
		ra = 30 * time.Second
	}
	return ra
}

// writeRetryAfter stamps the Retry-After hint in whole seconds (minimum 1 —
// zero would invite an immediate, pointless retry).
func writeRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// admitSubmit applies the per-client rate limit to the upload path (sync and
// async alike; authentication and reads are never limited). It answers the
// 429 itself and reports whether the request may proceed.
func (s *Service) admitSubmit(w http.ResponseWriter, r *http.Request) bool {
	if s.limiter == nil {
		return true
	}
	ok, wait := s.limiter.allow(s.clientKey(r))
	if ok {
		return true
	}
	s.mu.Lock()
	s.metrics.RateLimited++
	s.mu.Unlock()
	writeRetryAfter(w, wait)
	writeError(w, http.StatusTooManyRequests, CodeRateLimited,
		fmt.Errorf("submit rate exceeds %g/s per client", s.limiter.rate))
	return false
}
