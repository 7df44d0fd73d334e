// Package loadgen is the fleet-scale load harness of ROADMAP item 4: K
// simulated dongle+phone pairs driving a live analysis service through the
// same stack a real deployment uses — internal/microfluidic captures,
// internal/phone relays, the cloud HTTP client with its retry and
// idempotency machinery — and reporting what the paper's capacity questions
// need: throughput, p50/p95/p99 submit latency, how much traffic the
// admission layers (rate limiter, shedder, queue bound) turned away, how
// many submissions the idempotency index absorbed, and whether any accepted
// capture was lost.
//
// Determinism: everything derives from Config.Seed — capture bytes, the
// dedup draw, and the optional fault schedule — so a reported SLO number is
// reproducible bit-for-bit by re-running with the same configuration.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"medsen/internal/cloud"
	"medsen/internal/csvio"
	"medsen/internal/drbg"
	"medsen/internal/faultinject"
	"medsen/internal/microfluidic"
	"medsen/internal/phone"
	"medsen/internal/promexp"
	"medsen/internal/sensor"
)

// Config describes one load run.
type Config struct {
	// BaseURL is the target analysis service.
	BaseURL string
	// APIKey authenticates every simulated device (the service may run
	// with auth disabled, in which case leave it empty).
	APIKey string
	// Devices is the fleet size K.
	Devices int
	// CapturesPerDevice is how many captures each device submits
	// sequentially (a device is one patient running tests back to back).
	CapturesPerDevice int
	// Seed pins the whole run: capture bytes, dedup draws, fault schedule.
	Seed uint64
	// SharedCapture replays one reference acquisition across the fleet
	// under per-submission idempotency keys (distinct keys force distinct
	// analyses server-side). This is the cheap mode for big K: capture
	// synthesis is paid once instead of K times. When false every device
	// acquires its own capture from its own seeded noise.
	SharedCapture bool
	// CaptureDurationS is the acquisition length in simulated seconds
	// (default 10). Longer captures mean bigger payloads and slower
	// analyses — the lever for pushing the service into its shedder.
	CaptureDurationS float64
	// DedupFraction in [0,1] is the probability that a submission re-sends
	// the device's previous idempotency key — the retransmit-after-timeout
	// behaviour of a flaky fleet. Those submissions must dedup, not store.
	DedupFraction float64
	// Async routes submissions through the job API with polling instead of
	// the synchronous upload.
	Async bool
	// Batch, when > 1, coalesces each device's captures into
	// POST /api/v1/analyses:batch requests of up to this many items instead
	// of submitting them one by one. Per-item idempotency keys (and the
	// dedup draw) are unchanged, so the exactly-once accounting is identical
	// to the single-submit modes; what changes is the amortization — one
	// HTTP round trip and one admission decision per batch. Capped at
	// cloud.MaxBatchItems. Mutually exclusive with Async.
	Batch int
	// PollInterval paces async polls (0 → client default).
	PollInterval time.Duration
	// Uplink models the cellular link (zero value: no simulated transfer
	// accounting; the relay still submits).
	Uplink phone.Link
	// Retry, when non-nil, gives every device the client's backoff loop —
	// a compliant fleet that honours Retry-After. Without it each 429 is a
	// terminal outcome for that submission, which is what admission-layer
	// measurements want.
	Retry *cloud.RetryPolicy
	// Faults, when non-nil, wraps every device's transport in a seeded
	// fault injector (resets, 5xx, truncations, delays) so the run
	// exercises the relay's retry/spool seams. The per-device seed is
	// derived from Seed and the device index.
	Faults *faultinject.HTTPConfig
	// Progress, when non-nil, receives coarse run updates.
	Progress func(string)
}

// Result is the harness report. All counters are submission-level: one
// capture submission is one unit whatever transport retries it took.
type Result struct {
	Devices  int `json:"devices"`
	Captures int `json:"captures"`

	// Succeeded submissions resolved to a stored analysis (fresh or
	// deduped); Failed is everything else, split by admission outcome.
	Succeeded         int `json:"succeeded"`
	RateLimited       int `json:"rate_limited"`
	Overloaded        int `json:"overloaded"`
	QueueFull         int `json:"queue_full"`
	DuplicateInFlight int `json:"duplicate_in_flight"`
	OtherErrors       int `json:"other_errors"`

	// UniqueAnalyses is the number of distinct analysis ids the fleet's
	// successes resolved to; DedupHits is Succeeded − UniqueAnalyses (the
	// submissions the idempotency index absorbed).
	UniqueAnalyses int `json:"unique_analyses"`
	DedupHits      int `json:"dedup_hits"`
	// CaptureLoss counts unique analyses that were acknowledged but not
	// retrievable afterwards — the number that must be zero.
	CaptureLoss int `json:"capture_loss"`

	// BatchRequests counts batch round trips for batch-mode runs (zero
	// otherwise). Captures/Succeeded stay item-level, so
	// Captures/BatchRequests is the measured amortization factor.
	BatchRequests int `json:"batch_requests,omitempty"`

	Elapsed time.Duration `json:"elapsed_ns"`
	// ThroughputPerSec is Succeeded / Elapsed.
	ThroughputPerSec float64 `json:"throughput_per_sec"`

	// Submit latency over successful submissions (wall clock per
	// submission, including polling for async runs). Batch-mode runs record
	// one sample per batch round trip — the latency a spool flush or bulk
	// re-upload actually experiences.
	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP95 time.Duration `json:"latency_p95_ns"`
	LatencyP99 time.Duration `json:"latency_p99_ns"`
	LatencyMax time.Duration `json:"latency_max_ns"`

	// Relay aggregates the fleet's phone-side counters.
	Relay phone.RelayMetrics `json:"relay"`

	// Server holds the service-side counter deltas across the run when
	// /metrics was reachable, nil otherwise. This is the ground truth the
	// client-observed counts are checked against.
	Server *cloud.Metrics `json:"server,omitempty"`
}

// Run executes one load run. The context cancels in-flight submissions;
// a cancelled run returns the partial result alongside ctx.Err().
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.Devices <= 0 {
		return Result{}, errors.New("loadgen: Devices must be positive")
	}
	if cfg.CapturesPerDevice <= 0 {
		cfg.CapturesPerDevice = 1
	}
	if cfg.CaptureDurationS <= 0 {
		cfg.CaptureDurationS = 10
	}
	if cfg.DedupFraction < 0 || cfg.DedupFraction > 1 {
		return Result{}, fmt.Errorf("loadgen: DedupFraction %g outside [0,1]", cfg.DedupFraction)
	}
	if cfg.Batch > cloud.MaxBatchItems {
		return Result{}, fmt.Errorf("loadgen: Batch %d exceeds the service's per-request cap %d", cfg.Batch, cloud.MaxBatchItems)
	}
	if cfg.Batch > 1 && cfg.Async {
		return Result{}, errors.New("loadgen: Batch and Async are mutually exclusive")
	}
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}

	// Synthesize payloads up front so capture generation is excluded from
	// the measured window (the harness measures the service, not the DSP).
	var shared []byte
	payloads := make([][]byte, cfg.Devices)
	if cfg.SharedCapture {
		p, err := capturePayload(cfg.Seed, cfg.CaptureDurationS)
		if err != nil {
			return Result{}, err
		}
		shared = p
		progress(fmt.Sprintf("synthesized 1 shared capture (%d bytes)", len(p)))
	} else {
		for i := range payloads {
			p, err := capturePayload(cfg.Seed+uint64(i)+1, cfg.CaptureDurationS)
			if err != nil {
				return Result{}, err
			}
			payloads[i] = p
		}
		progress(fmt.Sprintf("synthesized %d device captures", len(payloads)))
	}

	// Server-side counters before the run, for the delta report.
	probe := &cloud.Client{BaseURL: cfg.BaseURL, APIKey: cfg.APIKey}
	before, beforeErr := probe.Metrics(ctx)

	var (
		mu        sync.Mutex
		res       Result
		latencies []time.Duration
		analyses  = make(map[string]struct{})
		relay     phone.RelayMetrics
	)
	res.Devices = cfg.Devices
	progress(fmt.Sprintf("launching %d devices × %d captures", cfg.Devices, cfg.CapturesPerDevice))

	start := time.Now()
	var wg sync.WaitGroup
	for dev := 0; dev < cfg.Devices; dev++ {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			payload := shared
			if payload == nil {
				payload = payloads[dev]
			}
			rng := drbg.NewFromSeed(cfg.Seed ^ (0x9E3779B97F4A7C15 * uint64(dev+1)))
			prevKey := ""
			var local struct {
				latencies []time.Duration
				ids       []string
				outcomes  outcomeCounts
				batches   int
			}
			// nextKey draws the submission's idempotency key: fresh per
			// capture index, with a DedupFraction chance of retransmitting
			// the previous one. Identical across submit modes, so batch and
			// single-submit runs of the same seed exercise the same keys.
			nextKey := func(c int) string {
				key := fmt.Sprintf("loadgen:%d:d%d:c%d", cfg.Seed, dev, c)
				if prevKey != "" && rng.Float64() < cfg.DedupFraction {
					key = prevKey // simulated retransmit of the previous capture
				}
				prevKey = key
				return key
			}
			var m phone.RelayMetrics
			if cfg.Batch > 1 {
				client := deviceClient(cfg, dev)
				for c := 0; c < cfg.CapturesPerDevice; {
					if ctx.Err() != nil {
						return
					}
					n := cfg.Batch
					if rem := cfg.CapturesPerDevice - c; rem < n {
						n = rem
					}
					items := make([]cloud.BatchSubmission, n)
					for j := range items {
						items[j] = cloud.BatchSubmission{Payload: payload, IdempotencyKey: nextKey(c + j)}
					}
					c += n
					t0 := time.Now()
					resp, err := client.SubmitBatch(ctx, items)
					local.batches++
					if err != nil {
						// A whole-batch rejection (transport failure, 429,
						// shed) fails every capture it carried.
						for range items {
							local.outcomes.classify(err)
						}
						continue
					}
					local.latencies = append(local.latencies, time.Since(t0))
					for _, ir := range resp.Results {
						if ir.OK() {
							local.ids = append(local.ids, ir.ID)
						} else {
							local.outcomes.classifyItem(ir)
						}
					}
				}
			} else {
				r := deviceRelay(cfg, dev)
				for c := 0; c < cfg.CapturesPerDevice; c++ {
					if ctx.Err() != nil {
						return
					}
					key := nextKey(c)
					t0 := time.Now()
					sub, err := r.SubmitKeyed(ctx, payload, key)
					if err != nil {
						local.outcomes.classify(err)
						continue
					}
					local.latencies = append(local.latencies, time.Since(t0))
					local.ids = append(local.ids, sub.ID)
				}
				m = r.Metrics()
			}
			mu.Lock()
			res.Captures += cfg.CapturesPerDevice
			res.Succeeded += len(local.ids)
			res.BatchRequests += local.batches
			local.outcomes.addTo(&res)
			latencies = append(latencies, local.latencies...)
			for _, id := range local.ids {
				analyses[id] = struct{}{}
			}
			relay.LiveSubmits += m.LiveSubmits
			relay.SubmitFailures += m.SubmitFailures
			mu.Unlock()
		}(dev)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Relay = relay
	res.UniqueAnalyses = len(analyses)
	res.DedupHits = res.Succeeded - res.UniqueAnalyses
	if res.Elapsed > 0 {
		res.ThroughputPerSec = float64(res.Succeeded) / res.Elapsed.Seconds()
	}
	res.LatencyP50 = percentile(latencies, 0.50)
	res.LatencyP95 = percentile(latencies, 0.95)
	res.LatencyP99 = percentile(latencies, 0.99)
	res.LatencyMax = percentile(latencies, 1)

	if err := ctx.Err(); err != nil {
		return res, err
	}

	// Capture-loss audit: every acknowledged analysis must still be
	// retrievable. This is the check that catches a service that 2xx'd a
	// capture it never durably stored.
	progress(fmt.Sprintf("auditing %d unique analyses for loss", len(analyses)))
	verify := &cloud.Client{BaseURL: cfg.BaseURL, APIKey: cfg.APIKey,
		Retry: &cloud.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond}}
	for id := range analyses {
		if _, err := verify.GetReport(ctx, id); err != nil {
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
			res.CaptureLoss++
		}
	}

	if beforeErr == nil {
		if after, err := probe.Metrics(ctx); err == nil {
			delta := after.Sub(before)
			res.Server = &delta
		}
	}
	return res, nil
}

// outcomeCounts buckets failed submissions by the service's admission
// verdict, matched through the client's sentinel errors.
type outcomeCounts struct {
	rateLimited, overloaded, queueFull, dupInFlight, other int
}

func (o *outcomeCounts) classify(err error) {
	switch {
	case errors.Is(err, cloud.ErrRateLimited):
		o.rateLimited++
	case errors.Is(err, cloud.ErrOverloaded):
		o.overloaded++
	case errors.Is(err, cloud.ErrQueueFull):
		o.queueFull++
	case errors.Is(err, cloud.ErrDuplicateInFlight):
		o.dupInFlight++
	default:
		o.other++
	}
}

// classifyItem is classify for a batch item's per-slot verdict. The only
// admission outcome that can reach an individual slot is a duplicate-in-flight
// race (whole-batch outcomes — rate limiting, shedding — reject the request
// before any item runs and go through classify instead).
func (o *outcomeCounts) classifyItem(res cloud.BatchItemResult) {
	code := ""
	if res.Error != nil {
		code = res.Error.Code
	}
	if code == cloud.CodeDuplicateInFlight {
		o.dupInFlight++
		return
	}
	o.other++
}

func (o outcomeCounts) addTo(res *Result) {
	res.RateLimited += o.rateLimited
	res.Overloaded += o.overloaded
	res.QueueFull += o.queueFull
	res.DuplicateInFlight += o.dupInFlight
	res.OtherErrors += o.other
}

// deviceClient builds one device's HTTP client (and, when configured, its own
// seeded fault injector) — the transport both submit modes share.
func deviceClient(cfg Config, dev int) *cloud.Client {
	client := &cloud.Client{
		BaseURL:  cfg.BaseURL,
		APIKey:   cfg.APIKey,
		ClientID: fmt.Sprintf("loadgen-d%d", dev),
		Retry:    cfg.Retry,
	}
	if cfg.Faults != nil {
		fc := *cfg.Faults
		fc.Seed = int64(cfg.Seed) + int64(dev)*7919
		client.HTTPClient = &http.Client{Transport: faultinject.NewRoundTripper(nil, fc)}
	}
	return client
}

// deviceRelay builds one simulated phone around its own HTTP client.
func deviceRelay(cfg Config, dev int) *phone.Relay {
	return &phone.Relay{
		Client:       deviceClient(cfg, dev),
		Uplink:       cfg.Uplink,
		Async:        cfg.Async,
		PollInterval: cfg.PollInterval,
	}
}

// capturePayload synthesizes one compressed capture from a seed: the
// standard blood sample through the default sensor with loss disabled —
// deterministic bytes, realistic size.
func capturePayload(seed uint64, durationS float64) ([]byte, error) {
	s := sensor.NewDefault()
	s.Loss = microfluidic.LossModel{Disabled: true}
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 300,
	})
	res, err := s.Acquire(sensor.AcquireConfig{Sample: sample, DurationS: durationS}, drbg.NewFromSeed(seed))
	if err != nil {
		return nil, fmt.Errorf("loadgen: synthesizing capture: %w", err)
	}
	return csvio.CompressAcquisition(res.Acquisition)
}

// percentile returns the q-quantile (0 < q ≤ 1) by nearest rank over a copy
// of the samples: the ⌈q·n⌉-th smallest; 0 when there are none.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// WritePrometheus renders the run report in the Prometheus text format —
// the loadgen-side families mirroring the service's medsen_* set, so a CI
// run can publish its SLO numbers to the same scrape pipeline that watches
// production. Latencies convert to base seconds per the exposition
// conventions.
func (r Result) WritePrometheus(w io.Writer) error {
	pw := promexp.NewWriter(w)
	pw.Gauge("medsen_loadgen_devices", "Simulated fleet size of the run.", float64(r.Devices))
	pw.Counter("medsen_loadgen_captures_total", "Capture submissions attempted.", float64(r.Captures))
	pw.Counter("medsen_loadgen_succeeded_total", "Submissions resolved to a stored analysis.", float64(r.Succeeded))
	pw.Counter("medsen_loadgen_rate_limited_total", "Submissions bounced by the per-client rate limiter.", float64(r.RateLimited))
	pw.Counter("medsen_loadgen_overloaded_total", "Submissions shed by the queue-wait estimator.", float64(r.Overloaded))
	pw.Counter("medsen_loadgen_queue_full_total", "Submissions bounced by the queue-depth bound.", float64(r.QueueFull))
	pw.Counter("medsen_loadgen_duplicate_in_flight_total", "Submissions answered 409 while the owning job ran.", float64(r.DuplicateInFlight))
	pw.Counter("medsen_loadgen_other_errors_total", "Submissions failed for any other reason.", float64(r.OtherErrors))
	pw.Counter("medsen_loadgen_batch_requests_total", "Batch round trips for batch-mode runs.", float64(r.BatchRequests))
	pw.Counter("medsen_loadgen_dedup_hits_total", "Successful submissions absorbed by the idempotency index.", float64(r.DedupHits))
	pw.Counter("medsen_loadgen_capture_loss_total", "Acknowledged analyses that were not retrievable afterwards.", float64(r.CaptureLoss))
	pw.Gauge("medsen_loadgen_unique_analyses", "Distinct analyses the run's successes resolved to.", float64(r.UniqueAnalyses))
	pw.Gauge("medsen_loadgen_throughput_per_second", "Successful submissions per second of run wall clock.", r.ThroughputPerSec)
	pw.Gauge("medsen_loadgen_latency_seconds", "Submit latency quantiles over successful submissions.",
		r.LatencyP50.Seconds(), "quantile", "0.5")
	pw.Gauge("medsen_loadgen_latency_seconds", "", r.LatencyP95.Seconds(), "quantile", "0.95")
	pw.Gauge("medsen_loadgen_latency_seconds", "", r.LatencyP99.Seconds(), "quantile", "0.99")
	pw.Gauge("medsen_loadgen_latency_seconds", "", r.LatencyMax.Seconds(), "quantile", "1")
	r.Relay.WritePrometheus(pw)
	return pw.Err()
}

// Summary renders the human-readable report the CLI prints.
func (r Result) Summary() string {
	var b []byte
	add := func(format string, args ...any) { b = fmt.Appendf(b, format+"\n", args...) }
	add("devices            %d", r.Devices)
	add("captures           %d", r.Captures)
	add("succeeded          %d (%d unique analyses, %d dedup hits)", r.Succeeded, r.UniqueAnalyses, r.DedupHits)
	add("rate limited       %d", r.RateLimited)
	add("overloaded (shed)  %d", r.Overloaded)
	add("queue full         %d", r.QueueFull)
	add("dup in flight      %d", r.DuplicateInFlight)
	add("other errors       %d", r.OtherErrors)
	add("capture loss       %d", r.CaptureLoss)
	if r.BatchRequests > 0 {
		add("batch round trips  %d (%.1f captures/request)", r.BatchRequests,
			float64(r.Captures)/float64(r.BatchRequests))
	}
	add("elapsed            %v", r.Elapsed.Round(time.Millisecond))
	add("throughput         %.1f/s", r.ThroughputPerSec)
	add("latency p50/p95/p99/max  %v / %v / %v / %v",
		r.LatencyP50.Round(time.Millisecond), r.LatencyP95.Round(time.Millisecond),
		r.LatencyP99.Round(time.Millisecond), r.LatencyMax.Round(time.Millisecond))
	if r.Server != nil {
		add("server deltas      uploads=%d enqueued=%d rate_limited=%d shed=%d dedup_hits=%d upload_errors=%d",
			r.Server.Uploads, r.Server.JobsEnqueued, r.Server.RateLimited,
			r.Server.Shed, r.Server.DedupHits, r.Server.UploadErrors)
		if r.Server.JobsReclaimed != 0 || r.Server.JobsPoisoned != 0 || r.Server.LeaseExpirations != 0 || r.Server.WorkersActive != 0 {
			add("worker deltas      lease_expirations=%d reclaimed=%d poisoned=%d workers_active=%d",
				r.Server.LeaseExpirations, r.Server.JobsReclaimed, r.Server.JobsPoisoned, r.Server.WorkersActive)
		}
	}
	return string(b)
}
