package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// HTTPConfig configures a faulty RoundTripper. The zero value injects
// nothing.
type HTTPConfig struct {
	// Seed pins the fault schedule: two injectors with the same seed and
	// the same call sequence inject identical faults.
	Seed int64
	// ResetRate fails the request before it reaches the server — a
	// connection reset or refused dial. The server never sees it, so a
	// retried request is not a duplicate.
	ResetRate float64
	// FiveXXRate answers 503 without contacting the server — the
	// overloaded proxy or gateway in front of a healthy service.
	FiveXXRate float64
	// TruncateRate forwards the request but cuts the response body short,
	// so the server did the work and the client gets a torn answer — the
	// nastiest case for idempotency.
	TruncateRate float64
	// DelayRate and Delay add latency to a request before it is sent.
	// Delays do not consume the fault budget.
	DelayRate float64
	Delay     time.Duration
	// MaxFaults bounds injected faults (0 = no bound); once spent the
	// transport is a passthrough, so retry loops terminate.
	MaxFaults int
}

// HTTPStats counts what a RoundTripper actually injected.
type HTTPStats struct {
	Resets    int
	FiveXX    int
	Truncated int
}

// RoundTripper wraps an http.RoundTripper with seeded transport faults.
type RoundTripper struct {
	base   http.RoundTripper
	cfg    HTTPConfig
	src    *source
	delays *source

	mu    sync.Mutex
	stats HTTPStats
}

// NewRoundTripper wraps base (nil = http.DefaultTransport) with the
// configured fault schedule.
func NewRoundTripper(base http.RoundTripper, cfg HTTPConfig) *RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &RoundTripper{
		base:   base,
		cfg:    cfg,
		src:    newSource(cfg.Seed, cfg.MaxFaults),
		delays: newSource(cfg.Seed+0x9E3779B9, 0),
	}
}

// Faults returns how many faults have been injected so far.
func (rt *RoundTripper) Faults() int { return rt.src.count() }

// Stats returns what has been injected so far, by kind.
func (rt *RoundTripper) Stats() HTTPStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.stats
}

func (rt *RoundTripper) bump(f func(*HTTPStats)) {
	rt.mu.Lock()
	f(&rt.stats)
	rt.mu.Unlock()
}

// RoundTrip implements http.RoundTripper.
func (rt *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if rt.cfg.Delay > 0 && rt.delays.hit(rt.cfg.DelayRate) {
		time.Sleep(rt.cfg.Delay)
	}
	if rt.src.hit(rt.cfg.ResetRate) {
		closeBody(req)
		rt.bump(func(s *HTTPStats) { s.Resets++ })
		return nil, fmt.Errorf("%w: connection reset before %s %s", ErrInjected, req.Method, req.URL.Path)
	}
	if rt.src.hit(rt.cfg.FiveXXRate) {
		closeBody(req)
		rt.bump(func(s *HTTPStats) { s.FiveXX++ })
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{"Content-Type": []string{"text/plain"}},
			Body:       io.NopCloser(bytes.NewReader([]byte("injected upstream failure"))),
			Request:    req,
		}, nil
	}
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if rt.src.hit(rt.cfg.TruncateRate) {
		rt.bump(func(s *HTTPStats) { s.Truncated++ })
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		cut := len(body) / 2
		resp.Body = &truncatedBody{data: body[:cut]}
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
	}
	return resp, nil
}

// closeBody honors the RoundTripper contract: the transport owns the
// request body even when it fails.
func closeBody(req *http.Request) {
	if req.Body != nil {
		_ = req.Body.Close()
	}
}

// truncatedBody serves a prefix of the real body, then fails the way a torn
// connection does — with io.ErrUnexpectedEOF rather than a clean EOF.
type truncatedBody struct {
	data []byte
	off  int
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *truncatedBody) Close() error { return nil }
