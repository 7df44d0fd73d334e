// Package phone models the untrusted smartphone relay of §VI-D: the Android
// app that receives the (already encrypted) measurements from the controller
// over the accessory link, zip-compresses them "to improve the network
// transfer efficiency", uploads them to the cloud over a simulated 4G link,
// relays the analysis outcome back, and shows test progression to the user.
//
// The phone holds no keys and learns nothing beyond ciphertext sizes and
// timings — it sits outside MedSen's trusted computing base (§II).
package phone

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"medsen/internal/cloud"
	"medsen/internal/csvio"
	"medsen/internal/lockin"
	"medsen/internal/promexp"
)

// Link models a cellular uplink by bandwidth and round-trip time. Transfer
// durations are *computed*, not slept, so experiments can report network
// costs without real elapsed time; Sleep turns on real sleeping for live
// demos.
type Link struct {
	// UplinkBps is the sustained uplink throughput in bytes per second.
	UplinkBps float64
	// RTT is the request round-trip latency.
	RTT time.Duration
	// Sleep makes Transfer actually block for the simulated duration.
	Sleep bool
}

// Default4G returns a typical 2016-era LTE uplink: ~8 Mbit/s up, 50 ms RTT.
func Default4G() Link {
	return Link{UplinkBps: 1e6, RTT: 50 * time.Millisecond}
}

// TransferTime returns the simulated time to move n bytes over the link.
func (l Link) TransferTime(n int) time.Duration {
	if l.UplinkBps <= 0 {
		return l.RTT
	}
	return l.RTT + time.Duration(float64(n)/l.UplinkBps*float64(time.Second))
}

// TransferContext simulates (and, when Sleep is set, actually performs) the
// wait for n bytes, honouring context cancellation.
func (l Link) TransferContext(ctx context.Context, n int) (time.Duration, error) {
	d := l.TransferTime(n)
	if !l.Sleep {
		return d, ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return d, nil
	case <-ctx.Done():
		return d, ctx.Err()
	}
}

// UploadStats reports what one relay run cost.
type UploadStats struct {
	// RawBytes is the CSV payload size before compression.
	RawBytes int64
	// CompressedBytes is the zip payload size actually uploaded.
	CompressedBytes int64
	// SimulatedTransfer is the modeled 4G transfer duration for the
	// compressed payload.
	SimulatedTransfer time.Duration
	// CompressionRatio is RawBytes / CompressedBytes.
	CompressionRatio float64
}

// Relay is the phone application: accessory endpoint on one side, cloud
// client on the other.
type Relay struct {
	// Client talks to the analysis service.
	Client *cloud.Client
	// Uplink models the cellular link.
	Uplink Link
	// Progress, when non-nil, receives UI status strings ("it provides
	// ... test progression feedback to the user via information on the
	// screen", §VI-D).
	Progress func(string)
	// Async submits through the service's job API and polls for the
	// result instead of holding the upload connection open for the whole
	// analysis — the right mode for long captures and loaded servers.
	Async bool
	// PollInterval paces async status polls (0 → the client default).
	PollInterval time.Duration
	// Breaker, when non-nil, short-circuits the live-upload path in
	// SubmitOrSpool: after repeated failures captures spool directly to
	// the offline queue without paying a transfer plus a timeout each,
	// and a half-open probe after the cooldown restores live uploads.
	Breaker *Breaker

	// Counters behind Metrics, updated atomically (a relay is shared
	// between the accessory daemon and flush paths).
	liveSubmits    int64
	submitFailures int64
	spooled        int64
	backlogFlushed int64
}

// RelayMetrics is a point-in-time snapshot of the relay's upload counters
// and circuit-breaker state, the phone-side counterpart of the cloud
// service's /metrics document.
type RelayMetrics struct {
	// LiveSubmits counts captures delivered over the live path (including
	// async submit-and-poll completions).
	LiveSubmits int64 `json:"live_submits"`
	// SubmitFailures counts live submissions that returned an error.
	SubmitFailures int64 `json:"submit_failures"`
	// Spooled counts captures diverted to the offline queue.
	Spooled int64 `json:"spooled"`
	// BacklogFlushed counts spooled captures later shipped by the
	// post-recovery flush inside SubmitOrSpool.
	BacklogFlushed int64 `json:"backlog_flushed"`
	// BreakerState is "closed", "open" or "half-open" ("closed" when the
	// relay has no breaker: the live path is always admitted).
	BreakerState string `json:"breaker_state"`
}

// Metrics returns a snapshot of the relay's counters and breaker state.
func (r *Relay) Metrics() RelayMetrics {
	m := RelayMetrics{
		LiveSubmits:    atomic.LoadInt64(&r.liveSubmits),
		SubmitFailures: atomic.LoadInt64(&r.submitFailures),
		Spooled:        atomic.LoadInt64(&r.spooled),
		BacklogFlushed: atomic.LoadInt64(&r.backlogFlushed),
		BreakerState:   BreakerClosed.String(),
	}
	if r.Breaker != nil {
		m.BreakerState = r.Breaker.State().String()
	}
	return m
}

// WritePrometheus appends the relay's counters and breaker state to a
// Prometheus exposition, the phone-side families next to the cloud's
// medsen_* set. The breaker state renders one-hot — one sample per state,
// value 1 on the current one — so dashboards can plot transitions without
// decoding an enum. labels are extra name/value pairs stamped on every
// sample (e.g. a loadgen device id); aggregating exporters that merge many
// relays must pass distinct labels or emit one merged snapshot.
func (m RelayMetrics) WritePrometheus(pw *promexp.Writer, labels ...string) {
	pw.Counter("medsen_relay_live_submits_total",
		"Captures delivered over the live upload path.", float64(m.LiveSubmits), labels...)
	pw.Counter("medsen_relay_submit_failures_total",
		"Live submissions that returned an error.", float64(m.SubmitFailures), labels...)
	pw.Counter("medsen_relay_spooled_total",
		"Captures diverted to the offline queue.", float64(m.Spooled), labels...)
	pw.Counter("medsen_relay_backlog_flushed_total",
		"Spooled captures shipped by the post-recovery flush.", float64(m.BacklogFlushed), labels...)
	for _, st := range []string{
		BreakerClosed.String(), BreakerOpen.String(), BreakerHalfOpen.String(),
	} {
		v := 0.0
		if st == m.BreakerState {
			v = 1
		}
		pw.Gauge("medsen_relay_breaker_state",
			"One-hot circuit breaker state (1 on the current state).", v,
			append(append([]string(nil), labels...), "state", st)...)
	}
}

func (r *Relay) progress(format string, args ...any) {
	if r.Progress != nil {
		r.Progress(fmt.Sprintf(format, args...))
	}
}

// Upload compresses and ships an acquisition to the cloud, returning the
// submission outcome and transfer statistics.
func (r *Relay) Upload(ctx context.Context, acq lockin.Acquisition) (cloud.SubmitResponse, UploadStats, error) {
	if r.Client == nil {
		return cloud.SubmitResponse{}, UploadStats{}, errors.New("phone: relay has no cloud client")
	}
	r.progress("compressing measurements")
	payload, err := csvio.CompressAcquisition(acq)
	if err != nil {
		return cloud.SubmitResponse{}, UploadStats{}, err
	}
	raw, err := csvio.MeasurementsSize(payload)
	if err != nil {
		return cloud.SubmitResponse{}, UploadStats{}, err
	}
	stats := UploadStats{
		RawBytes:        raw,
		CompressedBytes: int64(len(payload)),
	}
	if stats.CompressedBytes > 0 {
		stats.CompressionRatio = float64(stats.RawBytes) / float64(stats.CompressedBytes)
	}

	r.progress("uploading %d bytes (%.1fx compressed)", stats.CompressedBytes, stats.CompressionRatio)
	d, err := r.Uplink.TransferContext(ctx, len(payload))
	stats.SimulatedTransfer = d
	if err != nil {
		return cloud.SubmitResponse{}, stats, fmt.Errorf("phone: uplink: %w", err)
	}

	sub, err := r.Submit(ctx, payload)
	if err != nil {
		return cloud.SubmitResponse{}, stats, err
	}
	r.progress("analysis %s complete: %d peaks", sub.ID, sub.Report.PeakCount)
	return sub, stats, nil
}

// Submit ships an already compressed payload to the cloud using the relay's
// configured mode: the synchronous upload, or the async job API with
// polling (which rides out queue-full backpressure and — because accepted
// jobs are journaled server-side — an analysis-service restart mid-poll).
//
// Every submission carries the payload's content-derived idempotency key
// (cloud.CaptureKey), so a retry of the same capture — here, from the
// offline queue, or from a fresh process after a phone crash — dedups
// server-side instead of producing a second analysis.
func (r *Relay) Submit(ctx context.Context, payload []byte) (cloud.SubmitResponse, error) {
	return r.SubmitKeyed(ctx, payload, cloud.CaptureKey(payload))
}

// SubmitKeyed is Submit under an explicit Idempotency-Key. Distinct keys
// force distinct analyses even for byte-identical payloads, which is what a
// load generator replaying one reference capture across a simulated fleet
// needs; production relays should stay on Submit's content-derived key.
func (r *Relay) SubmitKeyed(ctx context.Context, payload []byte, key string) (cloud.SubmitResponse, error) {
	if r.Client == nil {
		return cloud.SubmitResponse{}, errors.New("phone: relay has no cloud client")
	}
	var sub cloud.SubmitResponse
	var err error
	if r.Async {
		r.progress("submitted async; polling for the analysis result")
		sub, err = r.Client.SubmitAndPollKeyed(ctx, payload, r.PollInterval, key)
	} else {
		sub, err = r.Client.SubmitCompressedKeyed(ctx, payload, key)
	}
	if err != nil {
		atomic.AddInt64(&r.submitFailures, 1)
		return sub, err
	}
	atomic.AddInt64(&r.liveSubmits, 1)
	return sub, nil
}

// Analyze implements the controller's Analyzer port: it relays the
// acquisition through the phone and returns only the report, exactly what
// the controller needs for decryption.
func (r *Relay) Analyze(ctx context.Context, acq lockin.Acquisition) (cloud.Report, error) {
	sub, _, err := r.Upload(ctx, acq)
	if err != nil {
		return cloud.Report{}, err
	}
	return sub.Report, nil
}

// SubmitAndAuthenticate uploads a (plaintext-mode) capture and immediately
// runs server-side cyto-coded authentication on it — the phone-side half of
// a §V login. It implements the controller's AuthPort.
func (r *Relay) SubmitAndAuthenticate(ctx context.Context, acq lockin.Acquisition) (cloud.AuthResult, error) {
	sub, _, err := r.Upload(ctx, acq)
	if err != nil {
		return cloud.AuthResult{}, err
	}
	res, err := r.Client.Authenticate(ctx, sub.ID)
	if err != nil {
		return cloud.AuthResult{}, err
	}
	r.progress("authentication: matched=%q ok=%v", res.UserID, res.Authenticated)
	return res, nil
}
