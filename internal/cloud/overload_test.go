package cloud

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"medsen/internal/auth"
)

// TestRateLimiterTokenBucket drives the limiter with a pinned clock: burst
// spends, refill restores, and the Retry-After hint covers the deficit.
func TestRateLimiterTokenBucket(t *testing.T) {
	now := time.Unix(5000, 0)
	l := newRateLimiter(2, 2, func() time.Time { return now })

	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("id:dev"); !ok {
			t.Fatalf("burst submit %d rejected", i)
		}
	}
	ok, wait := l.allow("id:dev")
	if ok {
		t.Fatal("submit beyond burst admitted")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry-after = %v, want (0, 1s] at 2 tokens/s", wait)
	}
	// Other clients are unaffected (per-client isolation).
	if ok, _ := l.allow("id:other"); !ok {
		t.Fatal("fresh client rejected while another is exhausted")
	}
	// Refill: after the hinted wait the original client is admitted again.
	now = now.Add(wait)
	if ok, _ := l.allow("id:dev"); !ok {
		t.Fatal("submit after compliant wait rejected")
	}
}

// TestRateLimiterSweep: at the bucket cap, fully refilled (idle) buckets are
// swept so spoofed client ids cannot grow the map without bound.
func TestRateLimiterSweep(t *testing.T) {
	now := time.Unix(6000, 0)
	l := newRateLimiter(1, 1, func() time.Time { return now })
	for i := 0; i < 10; i++ {
		l.allow(fmt.Sprintf("id:%d", i))
	}
	now = now.Add(time.Minute) // every bucket refills
	l.mu.Lock()
	l.sweepLocked(now)
	n := len(l.buckets)
	l.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d refilled buckets survived the sweep", n)
	}
}

// TestRateLimiterBucketCapHolds is the regression test for the unbounded
// growth bug: when every bucket is mid-refill (a sustained flood of spoofed
// client ids keeps them all active), the sweep reclaims nothing — and the
// old code inserted the new bucket anyway, so the map grew one entry per
// spoofed id without bound. The cap must hold by evicting the longest-idle
// buckets instead.
func TestRateLimiterBucketCapHolds(t *testing.T) {
	now := time.Unix(7000, 0)
	l := newRateLimiter(1, 4, func() time.Time { return now })
	l.max = 64 // test-sized cap; production uses maxRateBuckets

	// A flood of distinct ids arriving 1ms apart: every bucket has spent a
	// token within the last second, so none is fully refilled and the sweep
	// is useless. The cap must hold anyway.
	for i := 0; i < 10*l.max; i++ {
		now = now.Add(time.Millisecond)
		if ok, _ := l.allow(fmt.Sprintf("spoof:%d", i)); !ok {
			t.Fatalf("fresh id %d rejected (burst 4)", i)
		}
		l.mu.Lock()
		n := len(l.buckets)
		l.mu.Unlock()
		if n > l.max {
			t.Fatalf("bucket map grew to %d entries (cap %d) after %d spoofed ids",
				n, l.max, i+1)
		}
	}

	// Eviction favours the longest-idle buckets: the most recent id must
	// still be resident with its spent token, not reset to a fresh burst.
	l.mu.Lock()
	b := l.buckets[fmt.Sprintf("spoof:%d", 10*l.max-1)]
	l.mu.Unlock()
	if b == nil {
		t.Fatal("the newest bucket was evicted; eviction must drop the oldest")
	}
	if b.tokens >= l.burst {
		t.Fatalf("newest bucket holds %.1f tokens, want < burst %g (its spend must survive)",
			b.tokens, l.burst)
	}
}

// TestClientKeyForms covers the identity forms the limiter keys on: the
// authenticated key id when a principal is present, the remote host when
// not, and the raw remote address as the last resort. The spoofable
// X-Client-Id header is deliberately ignored.
func TestClientKeyForms(t *testing.T) {
	svc, err := NewService(ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	r := httptest.NewRequest(http.MethodPost, "/", nil)
	r.RemoteAddr = "10.1.2.3:5555"
	if k := svc.clientKey(r); k != "addr:10.1.2.3" {
		t.Fatalf("host key = %q", k)
	}
	r.Header.Set("X-Client-Id", "dongle-7")
	if k := svc.clientKey(r); k != "addr:10.1.2.3" {
		t.Fatalf("X-Client-Id must not key the limiter, got %q", k)
	}
	r = r.WithContext(context.WithValue(r.Context(), principalCtxKey{},
		auth.Principal{KeyID: "key-9", Role: auth.RoleOwner, Subject: "alice"}))
	if k := svc.clientKey(r); k != "key:key-9" {
		t.Fatalf("principal key = %q", k)
	}
	r = httptest.NewRequest(http.MethodPost, "/", nil)
	r.RemoteAddr = "not-a-hostport"
	if k := svc.clientKey(r); k != "addr:not-a-hostport" {
		t.Fatalf("fallback key = %q", k)
	}
}

// TestQueueEstimatorWindow: the mean tracks the sliding window, including
// after the ring wraps, and negative samples are ignored.
func TestQueueEstimatorWindow(t *testing.T) {
	var e queueEstimator
	if e.mean() != 0 {
		t.Fatal("empty estimator should average to 0")
	}
	e.observe(-time.Second)
	if e.mean() != 0 {
		t.Fatal("negative sample counted")
	}
	e.observe(100 * time.Millisecond)
	e.observe(300 * time.Millisecond)
	if m := e.mean(); m != 200*time.Millisecond {
		t.Fatalf("mean = %v, want 200ms", m)
	}
	// Fill the window with 1s samples: the early ones must fall out.
	for i := 0; i < queueEstimatorWindow; i++ {
		e.observe(time.Second)
	}
	if m := e.mean(); m != time.Second {
		t.Fatalf("post-wrap mean = %v, want 1s", m)
	}
}

// TestRateLimitedSubmitGets429 is the end-to-end contract: past the burst a
// client sees 429 rate_limited with a Retry-After hint, a compliant retry
// (the client waits it out) succeeds, and no duplicate analysis is created.
func TestRateLimitedSubmitGets429(t *testing.T) {
	// Authentication gives each client an unspoofable limiter identity (both
	// clients share the test server's loopback address, so per-key buckets
	// are the only thing isolating them).
	ks, err := auth.OpenKeystore(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	_, aliceKey, err := ks.Issue(auth.RoleOwner, "alice")
	if err != nil {
		t.Fatal(err)
	}
	_, bobKey, err := ks.Issue(auth.RoleOwner, "bob")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(ServiceConfig{RateLimit: 2, RateBurst: 1, Keystore: ks})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	// The limiter reads the service clock. It stands still from alice's first
	// submit to her retry, so her bucket cannot refill while a slow (raced)
	// submit runs: the 429 and the retry's wait depend on the limiter alone.
	clock := &pausableClock{}
	svc.now = clock.now
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()
	_, payload := testCapture(t, 121, 10)

	clock.pause()
	// No retry policy: the raw 429 shape is observable.
	bare := &Client{BaseURL: ts.URL, APIKey: aliceKey}
	if _, err := bare.SubmitCompressedKeyed(ctx, payload, "rl-1"); err != nil {
		t.Fatalf("burst submit: %v", err)
	}
	_, err = bare.SubmitCompressedKeyed(ctx, payload, "rl-2")
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err %v is not an *APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.RetryAfter <= 0 {
		t.Fatalf("apiErr = %+v, want 429 with Retry-After", apiErr)
	}

	// A second key has its own bucket — even with a spoofed X-Client-Id
	// matching nobody, and the same remote address.
	other := &Client{BaseURL: ts.URL, APIKey: bobKey, ClientID: "spoof-attempt"}
	if _, err := other.SubmitCompressedKeyed(ctx, payload, "rl-other"); err != nil {
		t.Fatalf("isolated client: %v", err)
	}

	// Compliant retry: with a retry policy the client honors Retry-After and
	// the same submission (same key) lands exactly once.
	retrying := &Client{BaseURL: ts.URL, APIKey: aliceKey,
		Retry: &RetryPolicy{MaxAttempts: 4, BaseDelay: 20 * time.Millisecond}}
	clock.resume()
	start := time.Now()
	sub, err := retrying.SubmitCompressedKeyed(ctx, payload, "rl-2")
	if err != nil {
		t.Fatalf("compliant retry: %v", err)
	}
	if sub.ID == "" {
		t.Fatal("no analysis id from retried submission")
	}
	if waited := time.Since(start); waited < 500*time.Millisecond {
		t.Fatalf("client retried after %v; it should have honored the ≥1s Retry-After", waited)
	}

	m := svc.Snapshot()
	if m.RateLimited < 1 {
		t.Fatalf("RateLimited = %d, want ≥1", m.RateLimited)
	}
	// Three distinct capture keys succeeded → exactly three analyses.
	if m.StoredAnalyses != 3 {
		t.Fatalf("StoredAnalyses = %d, want 3 (no duplicates)", m.StoredAnalyses)
	}
}

// pausableClock is wall time less the spans it stood still for.
type pausableClock struct {
	mu       sync.Mutex
	pausedAt time.Time     // the reading it stands at; zero while running
	lag      time.Duration // how long it has stood still in all
}

func (c *pausableClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.pausedAt.IsZero() {
		return c.pausedAt
	}
	return time.Now().Add(-c.lag)
}

// pause stops the clock at its current reading.
func (c *pausableClock) pause() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pausedAt = time.Now().Add(-c.lag)
}

// resume lets the clock advance with wall time again from where it stood.
func (c *pausableClock) resume() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lag = time.Since(c.pausedAt)
	c.pausedAt = time.Time{}
}

// TestAdaptiveSheddingPriorityLane: with the wait estimate past MaxQueueWait,
// async submissions shed with 429 overloaded while sync submissions — the
// interactive lane — still run until syncShedFactor times the limit, and
// authentication traffic is never shed.
func TestAdaptiveSheddingPriorityLane(t *testing.T) {
	svc, err := NewService(ServiceConfig{Workers: 1, QueueDepth: 8, MaxQueueWait: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	svc.mu.Lock()
	svc.jobGate = gate
	// Seed the latency window: recent jobs took 1s each, so one queued job
	// estimates 1s of wait — past the 300ms async limit, inside the 1.2s
	// sync limit.
	svc.queueEst.observe(time.Second)
	svc.mu.Unlock()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	client := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	_, payload := testCapture(t, 123, 10)

	// Job A occupies the worker at the gate; job B sits in the queue.
	ja, err := client.SubmitCompressedAsyncKeyed(ctx, payload, "shed-a")
	if err != nil {
		t.Fatal(err)
	}
	waitJobRunning(t, client, ja.ID)
	if _, err := client.SubmitCompressedAsyncKeyed(ctx, payload, "shed-b"); err != nil {
		t.Fatal(err)
	}

	// Async lane: estimated wait 1s > 300ms → shed.
	_, err = client.SubmitCompressedAsyncKeyed(ctx, payload, "shed-c")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("async err = %v, want ErrOverloaded", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests || apiErr.RetryAfter <= 0 {
		t.Fatalf("shed response = %+v, want 429 with Retry-After", err)
	}

	// Sync lane: 1s ≤ 4×300ms → still served inline.
	sub, err := client.SubmitCompressedKeyed(ctx, payload, "shed-sync")
	if err != nil {
		t.Fatalf("sync submit shed below the priority-lane limit: %v", err)
	}

	// Authentication is never shed, whatever the queue looks like (404 here:
	// the analysis exists but no identifier matches — the point is it is not
	// a 429).
	if _, err := client.Authenticate(ctx, sub.ID); errors.Is(err, ErrOverloaded) || errors.Is(err, ErrRateLimited) {
		t.Fatalf("authentication was shed: %v", err)
	}

	m := svc.Snapshot()
	if m.Shed < 1 {
		t.Fatalf("Shed = %d, want ≥1", m.Shed)
	}
	if m.QueueDepth != 1 || m.QueueWaitMS != 1000 {
		t.Fatalf("queue gauges = depth %d wait %dms, want 1 / 1000", m.QueueDepth, m.QueueWaitMS)
	}

	close(gate)
	svc.mu.Lock()
	svc.jobGate = nil
	svc.mu.Unlock()
	svc.Close()
}

// TestSheddingDisabledByDefault: without MaxQueueWait nothing sheds, however
// grim the estimate.
func TestSheddingDisabledByDefault(t *testing.T) {
	svc, err := NewService(ServiceConfig{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	svc.mu.Lock()
	svc.queueEst.observe(time.Hour)
	_, shed := svc.shedLocked(false)
	svc.mu.Unlock()
	if shed {
		t.Fatal("service shed with MaxQueueWait unset")
	}
}

// TestOversizedUploadFast413: MaxBytesReader cuts the read at the limit and
// the service answers 413 payload_too_large. The limit is shrunk so the test
// does not ship a gigabyte.
func TestOversizedUploadFast413(t *testing.T) {
	svc, err := NewService(ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	svc.uploadLimit = 1024
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	_, err = (&Client{BaseURL: ts.URL}).SubmitCompressed(context.Background(), make([]byte, 2048))
	if !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("err = %v, want ErrPayloadTooLarge", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload error = %v, want 413", err)
	}
}
