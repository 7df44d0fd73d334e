// Command medsen-cloud runs the untrusted analysis service: it accepts
// zip-compressed measurement uploads, executes the peak-detection pipeline
// (inline or on a bounded async job queue), serves stored reports, and
// performs cyto-coded authentication against its enrollment registry.
//
// With -state-dir the async job queue is durable: accepted jobs are
// journaled and recovered on restart, and SIGTERM/SIGINT drains in-flight
// analyses within -shutdown-timeout instead of killing workers mid-job
// (still-queued jobs stay journaled for the next start). Documents are
// checksummed on disk; a corrupt one is quarantined to <state-dir>/corrupt
// at startup (audited, counted in store_salvaged) and the service starts on
// the healthy remainder — pass -salvage=false to refuse to start instead.
// While durable writes fail persistently the service serves reads but
// refuses mutations with 503 degraded, recovering automatically once the
// disk heals; verify a state directory offline with medsen-keytool store
// fsck.
//
// -rate-limit bounds each client to a sustained submissions-per-second rate
// (burst -rate-burst) answered with 429 + Retry-After, and -max-queue-wait
// sheds load adaptively once the estimated queue wait exceeds the bound —
// batch async uploads first, interactive sync submissions only at 4x the
// limit, authentication never. Uploads dedup on their Idempotency-Key
// header (default: the payload SHA-256), so rejected or retried submissions
// never double-analyze a capture.
//
// With -auth every /api/v1 request must carry an Authorization: Bearer API
// key (owner/clinic/admin RBAC; keys live under <state-dir>/auth and are
// managed via POST /api/v1/keys or medsen-keytool apikey), and every access
// is recorded to the hash-chained audit trail at <state-dir>/audit.log —
// verified on startup, served to admins at GET /api/v1/audit. Use
// -bootstrap-admin-key to install the first admin credential.
//
// GET /metrics serves the service counters as JSON by default; a Prometheus
// scraper gets the text exposition format via ?format=prometheus or its
// Accept header. Drive the service at fleet scale with medsen-loadgen.
//
// The execution topology is chosen with -role:
//
//	-role=all       (default) one process does everything: the HTTP frontend
//	                plus the in-process analysis worker pool.
//	-role=frontend  HTTP only; async jobs wait for external worker daemons
//	                to lease them over the internal workqueue API. Leases are
//	                bounded by -lease-ttl and attempts by -max-attempts; the
//	                built-in reaper reclaims expired leases and quarantines
//	                poison jobs.
//	-role=worker    no HTTP listener; the process pulls jobs from the
//	                frontend at -frontend-url (heartbeating every
//	                -heartbeat-interval) and posts results back.
//
// Usage:
//
//	medsen-cloud [-role all|frontend|worker] [-addr :8077] [-workers N]
//	             [-queue-depth N] [-state-dir DIR] [-salvage=false]
//	             [-job-ttl D] [-max-terminal-jobs N] [-shutdown-timeout D]
//	             [-job-timeout D] [-rate-limit N] [-rate-burst N] [-max-queue-wait D]
//	             [-lease-ttl D] [-max-attempts N]
//	             [-frontend-url URL] [-worker-id ID] [-worker-concurrency N]
//	             [-heartbeat-interval D] [-poll-interval D] [-api-key SECRET]
//	             [-read-timeout D] [-write-timeout D] [-idle-timeout D]
//	             [-pprof-addr 127.0.0.1:6060] [-auth] [-bootstrap-admin-key SECRET]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"medsen/internal/audit"
	"medsen/internal/auth"
	"medsen/internal/cloud"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8077", "listen address")
	workers := flag.Int("workers", 0, "async analysis worker count (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "async job queue depth before 429 backpressure (0 = default 64)")
	stateDir := flag.String("state-dir", "", "directory persisting analyses and job journals across restarts (empty = in-memory only)")
	salvage := flag.Bool("salvage", true, "quarantine corrupt state documents to <state-dir>/corrupt and start on the healthy remainder; -salvage=false refuses to start over any corrupt document (inspect offline with medsen-keytool store fsck)")
	jobTTL := flag.Duration("job-ttl", 0, "terminal async job retention (0 = default 1h, negative = keep until count bound)")
	maxTerminalJobs := flag.Int("max-terminal-jobs", 0, "retained terminal async job records (0 = default 1024, negative = unbounded)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 30*time.Second, "graceful drain deadline on SIGTERM/SIGINT")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job analysis execution deadline; over-budget jobs fail terminally with deadline_exceeded (0 = none)")
	rateLimit := flag.Float64("rate-limit", 0, "per-client sustained submissions per second before 429 rate_limited (0 = unlimited)")
	rateBurst := flag.Int("rate-burst", 0, "per-client submission burst allowance (0 = 2x rate-limit)")
	maxQueueWait := flag.Duration("max-queue-wait", 0, "estimated queue wait beyond which new submissions are shed with 429 overloaded (0 = never shed)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "max duration reading an entire request, including the upload body")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "max duration writing a response")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time before the connection is closed")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof profiling endpoints (empty = disabled; a bare :port binds loopback only)")
	authOn := flag.Bool("auth", false, "require Authorization: Bearer API keys on every /api/v1 request and record the hash-chained audit trail")
	bootstrapAdminKey := flag.String("bootstrap-admin-key", "", "with -auth: install this secret as an admin API key at startup (idempotent), so further keys can be issued over the API")
	role := flag.String("role", "all", "process role: all (frontend + in-process workers), frontend (HTTP only; external workers pull jobs), worker (no HTTP; pull jobs from -frontend-url)")
	leaseTTL := flag.Duration("lease-ttl", 0, "worker lease duration before the reaper reclaims an un-heartbeated job (0 = default 30s)")
	maxAttempts := flag.Int("max-attempts", 0, "per-job attempt budget before quarantine as poisoned (0 = default 5, negative = unbounded)")
	frontendURL := flag.String("frontend-url", "http://127.0.0.1:8077", "with -role=worker: base URL of the frontend to pull jobs from")
	workerID := flag.String("worker-id", "", "with -role=worker: stable worker identity on the lease API (default host-pid derived)")
	workerConcurrency := flag.Int("worker-concurrency", 0, "with -role=worker: jobs run at once (0 = 1)")
	heartbeatInterval := flag.Duration("heartbeat-interval", 0, "with -role=worker: lease renewal period (0 = a third of the granted TTL)")
	pollInterval := flag.Duration("poll-interval", 0, "with -role=worker: idle back-off between empty acquire polls (0 = 500ms)")
	apiKey := flag.String("api-key", "", "with -role=worker: worker-role Authorization: Bearer credential for the frontend")
	flag.Parse()

	switch *role {
	case "all", "frontend":
	case "worker":
		return runWorkerRole(workerRoleConfig{
			frontendURL: *frontendURL,
			workerID:    *workerID,
			concurrency: *workerConcurrency,
			heartbeat:   *heartbeatInterval,
			poll:        *pollInterval,
			apiKey:      *apiKey,
		})
	default:
		fmt.Fprintf(os.Stderr, "medsen-cloud: unknown -role %q (want all, frontend or worker)\n", *role)
		return 1
	}

	if *pprofAddr != "" {
		// The profiler exposes heap contents and must never share the public
		// listener; a bare ":port" is pinned to loopback rather than all
		// interfaces.
		paddr := *pprofAddr
		if strings.HasPrefix(paddr, ":") {
			paddr = "127.0.0.1" + paddr
		}
		ln, err := net.Listen("tcp", paddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "medsen-cloud: pprof listener: %v\n", err)
			return 1
		}
		log.Printf("medsen-cloud: pprof on http://%s/debug/pprof/", ln.Addr())
		go func() {
			// DefaultServeMux carries only the net/http/pprof handlers; the
			// service handler below uses its own mux.
			if err := http.Serve(ln, nil); err != nil {
				log.Printf("medsen-cloud: pprof server: %v", err)
			}
		}()
	}

	var keystore *auth.Keystore
	var auditLog *audit.Log
	if *authOn {
		// Without a state dir both stores are memory-only: keys and trail die
		// with the process, which is fine for demos and wrong for production —
		// exactly like the analysis store itself.
		ksDir, auditPath := "", ""
		if *stateDir != "" {
			ksDir = cloud.AuthDir(*stateDir)
			auditPath = cloud.AuditLogPath(*stateDir)
		}
		var err error
		keystore, err = auth.OpenKeystore(nil, ksDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "medsen-cloud: %v\n", err)
			return 1
		}
		// A tampered audit chain refuses to open — the service must not start
		// over a trail it cannot vouch for.
		auditLog, err = audit.Open(auditPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "medsen-cloud: %v\n", err)
			return 1
		}
		defer auditLog.Close()
		if *bootstrapAdminKey != "" {
			k, err := keystore.Install(*bootstrapAdminKey, auth.RoleAdmin, "")
			if err != nil {
				fmt.Fprintf(os.Stderr, "medsen-cloud: bootstrap admin key: %v\n", err)
				return 1
			}
			log.Printf("medsen-cloud: bootstrap admin key installed as %s", k.ID)
		}
		if !keystore.HasActiveAdmin() {
			log.Printf("medsen-cloud: warning: no active admin key — key issuance and the audit trail are unreachable " +
				"(pass -bootstrap-admin-key or issue one with medsen-keytool apikey)")
		}
		log.Printf("medsen-cloud: authentication enabled (audit chain: %d records)", auditLog.Len())
	} else if *bootstrapAdminKey != "" {
		fmt.Fprintln(os.Stderr, "medsen-cloud: -bootstrap-admin-key requires -auth")
		return 1
	}

	svc, err := cloud.NewService(cloud.ServiceConfig{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		StateDir:        *stateDir,
		JobTTL:          *jobTTL,
		MaxTerminalJobs: *maxTerminalJobs,
		JobTimeout:      *jobTimeout,
		RateLimit:       *rateLimit,
		RateBurst:       *rateBurst,
		MaxQueueWait:    *maxQueueWait,
		StrictLoad:      !*salvage,
		Keystore:        keystore,
		Audit:           auditLog,
		ExternalWorkers: *role == "frontend",
		LeaseTTL:        *leaseTTL,
		MaxAttempts:     *maxAttempts,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "medsen-cloud: %v\n", err)
		return 1
	}
	// Full server timeouts, not just header reads: a stalled or malicious
	// client must not pin a connection (and its handler goroutine) forever.
	server := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	log.Printf("medsen-cloud: analysis service listening on %s", *addr)
	log.Printf("medsen-cloud: endpoints: POST /api/v1/analyses[?async=1], GET /api/v1/analyses, " +
		"GET /api/v1/analyses/{id}, GET /api/v1/jobs, GET /api/v1/jobs/{id}, " +
		"POST /api/v1/analyses/{id}/authenticate, POST /api/v1/users, GET /api/v1/users/{id}/analyses, " +
		"POST/GET /api/v1/keys, DELETE /api/v1/keys/{id}, GET /api/v1/audit, " +
		"GET /healthz, GET /readyz, GET /metrics[?format=prometheus]")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.ListenAndServe() }()

	select {
	case err := <-serveErr:
		svc.Close()
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "medsen-cloud: %v\n", err)
			return 1
		}
		return 0
	case <-ctx.Done():
	}

	// Signal received: stop accepting connections, then drain in-flight
	// analyses within the deadline. Jobs no worker picked up stay journaled
	// under -state-dir and are re-enqueued on the next start.
	log.Printf("medsen-cloud: signal received; draining jobs (deadline %s)", *shutdownTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := server.Shutdown(sctx); err != nil {
		log.Printf("medsen-cloud: http shutdown: %v", err)
	}
	if err := svc.Shutdown(sctx); err != nil {
		log.Printf("medsen-cloud: drain incomplete: %v (unfinished jobs remain journaled)", err)
		return 1
	}
	log.Printf("medsen-cloud: drained cleanly")
	return 0
}
