// Command medsen-loadgen drives a live analysis service with a simulated
// device fleet: K dongle+phone pairs (internal/microfluidic captures through
// internal/phone relays) submitting captures concurrently, then reports
// throughput, p50/p95/p99 submit latency, the admission-layer verdicts
// (rate-limited / shed / queue-full / duplicate), dedup absorption, and
// capture loss — the SLO numbers for ROADMAP item 4.
//
// Point it at a running medsen-cloud with -url, or pass -self-host to spin
// an in-process service on a loopback port (handy for CI smoke runs and for
// reproducing overload behaviour without a deployment). -self-host-workers=N
// additionally puts the hosted service in frontend mode (no in-process
// analysis pool) and runs N lease-pulling worker daemons against it — the
// distributed topology of `medsen-cloud -role=frontend` plus N
// `medsen-cloud -role=worker` processes, collapsed into one binary for
// smoke runs; it requires -async, since synchronous uploads never touch the
// work queue. The run is fully deterministic in -seed: capture bytes, dedup
// draws, and the optional fault schedule all derive from it.
//
// -json writes the machine-readable result document (the same numbers the
// benchmark harness publishes next to BENCH_*.json); -prom writes the run
// report in the Prometheus text format and re-reads it through the strict
// exposition parser, so a malformed family fails the run.
//
// -batch N coalesces each device's captures into POST /api/v1/analyses:batch
// requests of up to N items — per-item idempotency keys and verdicts, one
// HTTP round trip and one admission decision per batch — and the result
// document reports the measured amortization (captures per round trip).
//
// Usage:
//
//	medsen-loadgen [-url http://host:8077 | -self-host] [-devices K] [-captures N]
//	               [-seed S] [-shared] [-dedup F] [-async | -batch N]
//	               [-capture-duration S] [-api-key KEY] [-retries N] [-faults]
//	               [-rate-limit N] [-queue-depth N] [-max-queue-wait D]
//	               [-self-host-workers N] [-json FILE] [-prom FILE] [-v]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"medsen/internal/cloud"
	"medsen/internal/faultinject"
	"medsen/internal/loadgen"
	"medsen/internal/phone"
	"medsen/internal/promexp"
	"medsen/internal/workqueue"
)

func main() {
	os.Exit(run())
}

func run() int {
	url := flag.String("url", "", "target analysis service base URL (mutually exclusive with -self-host)")
	selfHost := flag.Bool("self-host", false, "spin an in-process analysis service on a loopback port and load it")
	devices := flag.Int("devices", 100, "simulated fleet size K")
	captures := flag.Int("captures", 1, "captures submitted per device")
	seed := flag.Uint64("seed", 1, "deterministic run seed (captures, dedup draws, fault schedule)")
	shared := flag.Bool("shared", true, "replay one reference capture fleet-wide under distinct idempotency keys (cheap); false synthesizes one capture per device")
	dedupFrac := flag.Float64("dedup", 0, "fraction of submissions re-sending the device's previous idempotency key (simulated retransmits; must dedup server-side)")
	asyncMode := flag.Bool("async", false, "submit through the job API with polling instead of synchronous uploads")
	batch := flag.Int("batch", 0, "coalesce each device's captures into batch submissions of up to N items (POST /api/v1/analyses:batch); 0 or 1 submits one capture per request")
	captureDuration := flag.Float64("capture-duration", 10, "simulated acquisition length in seconds (bigger = heavier analyses)")
	apiKey := flag.String("api-key", "", "Authorization: Bearer key sent by every device")
	retries := flag.Int("retries", 0, "per-device retry attempts honouring Retry-After (0 = report 429s as outcomes instead of retrying)")
	faults := flag.Bool("faults", false, "inject seeded transport faults (resets, 5xx, truncations) on every device")
	rateLimit := flag.Float64("rate-limit", 0, "with -self-host: per-client rate limit of the hosted service")
	queueDepth := flag.Int("queue-depth", 0, "with -self-host: job queue depth of the hosted service")
	maxQueueWait := flag.Duration("max-queue-wait", 0, "with -self-host: adaptive shedding bound of the hosted service")
	selfHostWorkers := flag.Int("self-host-workers", 0, "with -self-host: run the service in frontend mode and this many lease-pulling workers against it (requires -async)")
	jsonOut := flag.String("json", "", "write the machine-readable result document to this file")
	promOut := flag.String("prom", "", "write the run report in the Prometheus text format to this file")
	verbose := flag.Bool("v", false, "log run progress")
	flag.Parse()

	if (*url == "") == !*selfHost {
		fmt.Fprintln(os.Stderr, "medsen-loadgen: pass exactly one of -url or -self-host")
		return 2
	}
	if *selfHostWorkers > 0 && !*selfHost {
		fmt.Fprintln(os.Stderr, "medsen-loadgen: -self-host-workers requires -self-host")
		return 2
	}
	if *selfHostWorkers > 0 && !*asyncMode {
		// Synchronous uploads analyze inline in the HTTP handler; only the
		// job API routes through the lease queue the workers pull from.
		fmt.Fprintln(os.Stderr, "medsen-loadgen: -self-host-workers requires -async")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := *url
	if *selfHost {
		svc, err := cloud.NewService(cloud.ServiceConfig{
			RateLimit:       *rateLimit,
			QueueDepth:      *queueDepth,
			MaxQueueWait:    *maxQueueWait,
			ExternalWorkers: *selfHostWorkers > 0,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "medsen-loadgen: self-host service: %v\n", err)
			return 1
		}
		defer svc.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "medsen-loadgen: self-host listener: %v\n", err)
			return 1
		}
		server := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go func() { _ = server.Serve(ln) }()
		defer server.Close()
		base = "http://" + ln.Addr().String()
		log.Printf("medsen-loadgen: self-hosting analysis service on %s", base)

		if *selfHostWorkers > 0 {
			workerCtx, stopWorkers := context.WithCancel(ctx)
			var workerWG sync.WaitGroup
			for i := 0; i < *selfHostWorkers; i++ {
				w, err := workqueue.New(workqueue.Config{
					Client: &cloud.Client{BaseURL: base, APIKey: *apiKey},
					ID:     fmt.Sprintf("loadgen-worker-%d", i),
				})
				if err != nil {
					stopWorkers()
					fmt.Fprintf(os.Stderr, "medsen-loadgen: worker: %v\n", err)
					return 1
				}
				workerWG.Add(1)
				go func() {
					defer workerWG.Done()
					if err := w.Run(workerCtx); err != nil {
						log.Printf("medsen-loadgen: worker stopped: %v", err)
					}
				}()
			}
			defer workerWG.Wait()
			defer stopWorkers()
			log.Printf("medsen-loadgen: frontend mode, %d lease-pulling workers attached", *selfHostWorkers)
		}
	}

	cfg := loadgen.Config{
		BaseURL:           base,
		APIKey:            *apiKey,
		Devices:           *devices,
		CapturesPerDevice: *captures,
		Seed:              *seed,
		SharedCapture:     *shared,
		CaptureDurationS:  *captureDuration,
		DedupFraction:     *dedupFrac,
		Async:             *asyncMode,
		Batch:             *batch,
		Uplink:            phone.Default4G(),
	}
	if *retries > 0 {
		cfg.Retry = &cloud.RetryPolicy{MaxAttempts: *retries + 1, BaseDelay: 100 * time.Millisecond}
	}
	if *faults {
		cfg.Faults = &faultinject.HTTPConfig{ResetRate: 0.05, FiveXXRate: 0.05, TruncateRate: 0.02, MaxFaults: 2 * *devices}
	}
	if *verbose {
		cfg.Progress = func(msg string) { log.Printf("medsen-loadgen: %s", msg) }
	}

	res, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "medsen-loadgen: %v\n", err)
		return 1
	}
	fmt.Print(res.Summary())

	if *jsonOut != "" {
		doc, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "medsen-loadgen: encoding result: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*jsonOut, append(doc, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "medsen-loadgen: %v\n", err)
			return 1
		}
		log.Printf("medsen-loadgen: result written to %s", *jsonOut)
	}
	if *promOut != "" {
		f, err := os.Create(*promOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "medsen-loadgen: %v\n", err)
			return 1
		}
		werr := res.WritePrometheus(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "medsen-loadgen: writing %s: %v\n", *promOut, werr)
			return 1
		}
		// Round-trip through the strict exposition parser: the published
		// report must be scrapeable, not just written.
		data, err := os.ReadFile(*promOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "medsen-loadgen: re-reading %s: %v\n", *promOut, err)
			return 1
		}
		if _, err := promexp.Parse(data); err != nil {
			fmt.Fprintf(os.Stderr, "medsen-loadgen: %s is not valid exposition text: %v\n", *promOut, err)
			return 1
		}
		log.Printf("medsen-loadgen: Prometheus report written to %s and round-tripped through the parser", *promOut)
	}

	// Capture loss is the one number that is never acceptable: a non-zero
	// count means the service acknowledged a capture it cannot produce.
	if res.CaptureLoss > 0 {
		fmt.Fprintf(os.Stderr, "medsen-loadgen: FAIL: %d captures lost\n", res.CaptureLoss)
		return 1
	}
	return 0
}
