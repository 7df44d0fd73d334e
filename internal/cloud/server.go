package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"medsen/internal/audit"
	"medsen/internal/auth"
	"medsen/internal/beads"
	"medsen/internal/classify"
	"medsen/internal/csvio"
	"medsen/internal/faultinject"
	"medsen/internal/lockin"
	"medsen/internal/microfluidic"
	"medsen/internal/promexp"
)

// MaxUploadBytes bounds one measurement upload (a 3 h capture compresses to
// ~240 MB in the paper; we stay well above typical test sizes but finite).
// The phone app receives a capture from the device under the same bound.
const MaxUploadBytes = 1 << 30

// Service is the cloud analysis server: it accepts zip-compressed CSV
// uploads, runs the peak-detection pipeline (inline or on an async job
// queue), stores reports for later retrieval, authenticates users by bead
// statistics, and links identities to stored results. It holds no keys and
// sees only ciphertext.
type Service struct {
	cfg          AnalysisConfig
	model        *classify.Model
	registry     *beads.Registry
	flowUlPerMin float64
	workers      int
	queueDepth   int
	// store is the durable document backend (storage.go): a DiskStore over
	// the state directory, a MemStore, or nil for a fully ephemeral service.
	store Store
	// strictLoad makes a corrupt document refuse startup instead of being
	// quarantined (-salvage=off).
	strictLoad bool
	// jobTimeout bounds one async analysis execution (0 = none).
	jobTimeout time.Duration
	// analyze runs the DSP pipeline; tests override it to inject panics
	// and stalls.
	analyze func(lockin.Acquisition, AnalysisConfig) (Report, error)
	// limiter is the per-client submit rate limiter (nil = disabled).
	limiter *rateLimiter
	// maxQueueWait is the load-shedding limit on the estimated queue wait
	// (0 = shedding disabled).
	maxQueueWait time.Duration
	// uploadLimit is MaxUploadBytes, overridable by tests that exercise the
	// 413 path without gigabyte payloads.
	uploadLimit int64
	// keystore, when non-nil, requires API-key authentication on every
	// /api/v1 request (auth.go). auditLog, when non-nil, records the
	// tamper-evident access trail.
	keystore *auth.Keystore
	auditLog *audit.Log

	mu       sync.RWMutex
	analyses map[string]*storedAnalysis
	byUser   map[string][]string
	nextID   int
	metrics  Metrics
	// Exactly-once ingestion (dedup.go): capture key → owning work.
	dedup           map[string]*dedupEntry
	dedupSeq        int64
	dedupOrder      dedupQueue
	maxDedupEntries int
	// queueEst feeds the load shedder (overload.go).
	queueEst queueEstimator

	// Async job machinery (jobs.go). queue is the one FIFO of queued job
	// ids, fed by submissions, recovery, reclaims and retries and drained
	// by the in-process pool and the lease acquire API alike; queueCond
	// (over mu) wakes idle pool workers. jobsClosed rejects further
	// submissions.
	jobs       map[string]*queuedJob
	nextJobID  int
	queue      []string
	queueCond  *sync.Cond
	poolWG     sync.WaitGroup
	jobsClosed bool
	// stop, closed once (stopped records it, under mu), ends the pool, the
	// lease reaper and the store-recovery prober; bgWG tracks the latter
	// two.
	stop    chan struct{}
	stopped bool
	bgWG    sync.WaitGroup
	// Terminal-job retention bounds (jobs.go); now is the retention clock,
	// replaceable by tests.
	jobTTL          time.Duration
	maxTerminalJobs int
	now             func() time.Time
	// jobGate, when non-nil, stalls each worker until a token arrives —
	// tests use it to hold the queue full deterministically.
	jobGate chan struct{}

	// Lease-based external worker machinery (workqueue.go). externalWorkers
	// disables the in-process pool: jobs wait for a worker daemon to pull
	// them over the acquire API. workerSeen tracks each worker id's last
	// contact for the workers_active gauge.
	externalWorkers bool
	leaseTTL        time.Duration
	maxAttempts     int
	workerSeen      map[string]time.Time

	// Read-only degraded mode (degraded.go). degraded is the hot-path flag
	// (handlers only load it); deg holds the since/reason detail under its
	// own small mutex — never s.mu, because degraded-mode transitions happen
	// inside persist calls that already hold s.mu. storeRecovery is the
	// write-probe interval.
	degraded atomic.Bool
	deg      struct {
		mu     sync.Mutex
		since  time.Time
		reason string
	}
	storeRecovery time.Duration
	// pendingDeletes remembers documents whose Delete failed, for re-attempt
	// on the next retention sweep (store.go deleteDocLocked).
	pendingDeletes map[DocKind]map[string]bool
}

type storedAnalysis struct {
	Report Report
	UserID string
	// Owner is the principal subject that submitted the capture ("" when
	// submitted anonymously or by a subject-less clinic/admin key); RBAC
	// scopes owner-role reads to it.
	Owner string
	// extra preserves body fields written by a newer binary, so re-persisting
	// this record never strips them (document.go).
	extra map[string]json.RawMessage
}

// ServiceConfig bundles the service dependencies.
type ServiceConfig struct {
	// Analysis configures the DSP pipeline (zero value → defaults).
	Analysis AnalysisConfig
	// Model classifies peak features for authentication; nil installs
	// the physics-calibrated reference model over the paper's carriers.
	Model *classify.Model
	// Registry holds enrolled identifiers; nil creates an empty registry
	// over the default alphabet.
	Registry *beads.Registry
	// FlowUlPerMin is the device pump rate used to convert counts to
	// concentrations (0 → the paper's 0.08 µL/min).
	FlowUlPerMin float64
	// StateDir, when non-empty, persists every analysis to disk so the
	// store survives restarts (one JSON document per analysis).
	StateDir string
	// Store overrides the durable backend directly (MemStore, a future
	// SQL/KV store). nil with a StateDir builds a DiskStore over it; nil
	// without one leaves the service ephemeral.
	Store Store
	// StrictLoad restores the pre-salvage behavior: any corrupt document in
	// the store refuses startup instead of being quarantined.
	StrictLoad bool
	// StoreRecoveryInterval is how often a degraded service probes the store
	// for recovery (0 → 1 s, negative → no automatic recovery probing).
	StoreRecoveryInterval time.Duration
	// Workers is the async job worker pool size (0 → GOMAXPROCS). Each
	// worker runs one analysis at a time; the pipeline inside it is
	// further parallelized per AnalysisConfig.Workers.
	Workers int
	// QueueDepth bounds the async job queue; submissions beyond it get
	// 429 + Retry-After (0 → 64).
	QueueDepth int
	// JobTTL bounds how long terminal job records stay pollable after
	// completion (0 → 1 h, negative → no TTL).
	JobTTL time.Duration
	// MaxTerminalJobs caps retained terminal job records; the oldest are
	// evicted beyond it (0 → 1024, negative → no cap).
	MaxTerminalJobs int
	// JobTimeout bounds one async analysis execution: a job still running
	// past it fails terminally with code "deadline_exceeded", and a
	// journaled running job older than the deadline is recovered as
	// failed instead of re-run (0 → no deadline).
	JobTimeout time.Duration
	// FS abstracts the state-directory filesystem; nil uses the real OS
	// filesystem. Chaos tests plug a faultinject.FaultyFS here.
	FS faultinject.FS
	// RateLimit, when positive, enforces a per-client token-bucket limit on
	// uploads (sync and async alike): sustained submissions per second,
	// answered with 429 rate_limited + Retry-After beyond it. Clients are
	// keyed by the authenticated API key, falling back to the remote host
	// when authentication is disabled. 0 disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket capacity — how many submits a client
	// may burst before the sustained rate applies (0 → max(1, ⌈2×RateLimit⌉)).
	RateBurst int
	// MaxQueueWait, when positive, enables adaptive load shedding: async
	// submissions are shed with 429 overloaded + Retry-After once the
	// estimated queue wait (depth × sliding-window mean job latency ÷
	// workers) passes it. Sync submissions ride a priority lane (shed only
	// past syncShedFactor× the limit); authentication is never shed.
	// 0 disables shedding.
	MaxQueueWait time.Duration
	// MaxDedupEntries caps the idempotency index; the oldest completed
	// entries are evicted beyond it (0 → 65536, negative → unbounded).
	MaxDedupEntries int
	// Keystore, when non-nil, enables authentication: every /api/v1
	// request must carry an Authorization: Bearer API key issued by it,
	// and each handler authorizes the key's principal against the object
	// it touches (owner/clinic/admin RBAC). nil leaves the API anonymous
	// with full access, exactly as before authentication existed.
	Keystore *auth.Keystore
	// Audit, when non-nil, records submits, reads, authorization denials
	// and key lifecycle events to the hash-chained audit trail, served to
	// admins at GET /api/v1/audit.
	Audit *audit.Log
	// ExternalWorkers switches the service to pull mode: the in-process
	// worker pool is not started, and async jobs wait for worker daemons
	// (medsen-cloud -role=worker) to lease them over the internal workqueue
	// API. The acquire/heartbeat/complete endpoints are served either way —
	// a frontend with the pool running can still hand work to external
	// workers.
	ExternalWorkers bool
	// LeaseTTL bounds one worker lease: a leased job whose holder has not
	// heartbeat-renewed within it is reclaimed and re-enqueued by the
	// frontend reaper (0 → 30 s).
	LeaseTTL time.Duration
	// MaxAttempts is the per-job attempt budget: a job failed or reclaimed
	// this many times is quarantined as terminal "poisoned" instead of
	// retried forever (0 → 5, negative → unbounded).
	MaxAttempts int
}

// NewService builds the analysis service.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Analysis.ReferenceCarrierHz == 0 {
		cfg.Analysis = DefaultAnalysisConfig()
	}
	if cfg.Model == nil {
		m, err := classify.ReferenceModel([]float64{500e3, 800e3, 1000e3, 1200e3, 1400e3, 2000e3, 3000e3, 4000e3})
		if err != nil {
			return nil, err
		}
		cfg.Model = m
	}
	if cfg.Registry == nil {
		r, err := beads.NewRegistry(beads.DefaultAlphabet())
		if err != nil {
			return nil, err
		}
		cfg.Registry = r
	}
	if cfg.FlowUlPerMin == 0 {
		cfg.FlowUlPerMin = 0.08
	}
	if cfg.FlowUlPerMin < 0 {
		return nil, fmt.Errorf("cloud: negative flow %v", cfg.FlowUlPerMin)
	}
	if cfg.Workers < 0 || cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("cloud: negative workers %d or queue depth %d", cfg.Workers, cfg.QueueDepth)
	}
	if cfg.RateLimit < 0 || cfg.RateBurst < 0 {
		return nil, fmt.Errorf("cloud: negative rate limit %v or burst %d", cfg.RateLimit, cfg.RateBurst)
	}
	if cfg.MaxQueueWait < 0 {
		return nil, fmt.Errorf("cloud: negative max queue wait %v", cfg.MaxQueueWait)
	}
	if cfg.LeaseTTL < 0 {
		return nil, fmt.Errorf("cloud: negative lease TTL %v", cfg.LeaseTTL)
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = defaultLeaseTTL
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = defaultMaxAttempts
	}
	if cfg.RateLimit > 0 && cfg.RateBurst == 0 {
		cfg.RateBurst = int(math.Ceil(2 * cfg.RateLimit))
		if cfg.RateBurst < 1 {
			cfg.RateBurst = 1
		}
	}
	if cfg.MaxDedupEntries == 0 {
		cfg.MaxDedupEntries = defaultMaxDedupEntries
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.JobTTL == 0 {
		cfg.JobTTL = defaultJobTTL
	}
	if cfg.MaxTerminalJobs == 0 {
		cfg.MaxTerminalJobs = defaultMaxTerminalJobs
	}
	if cfg.Store == nil && cfg.StateDir != "" {
		store, err := NewDiskStore(DiskStoreConfig{Dir: cfg.StateDir, FS: cfg.FS})
		if err != nil {
			return nil, err
		}
		cfg.Store = store
	}
	if cfg.StoreRecoveryInterval == 0 {
		cfg.StoreRecoveryInterval = defaultStoreRecoveryInterval
	}
	s := &Service{
		cfg:             cfg.Analysis,
		model:           cfg.Model,
		registry:        cfg.Registry,
		flowUlPerMin:    cfg.FlowUlPerMin,
		workers:         cfg.Workers,
		queueDepth:      cfg.QueueDepth,
		store:           cfg.Store,
		strictLoad:      cfg.StrictLoad,
		storeRecovery:   cfg.StoreRecoveryInterval,
		jobTimeout:      cfg.JobTimeout,
		maxQueueWait:    cfg.MaxQueueWait,
		uploadLimit:     MaxUploadBytes,
		keystore:        cfg.Keystore,
		auditLog:        cfg.Audit,
		jobTTL:          cfg.JobTTL,
		maxTerminalJobs: cfg.MaxTerminalJobs,
		maxDedupEntries: cfg.MaxDedupEntries,
		externalWorkers: cfg.ExternalWorkers,
		leaseTTL:        cfg.LeaseTTL,
		maxAttempts:     cfg.MaxAttempts,
		now:             time.Now,
		analyze:         Analyze,
		analyses:        make(map[string]*storedAnalysis),
		byUser:          make(map[string][]string),
		jobs:            make(map[string]*queuedJob),
		dedup:           make(map[string]*dedupEntry),
		workerSeen:      make(map[string]time.Time),
		stop:            make(chan struct{}),
	}
	s.queueCond = sync.NewCond(&s.mu)
	if cfg.RateLimit > 0 {
		// The closure routes through s.now so tests that pin the service
		// clock pin the limiter too.
		s.limiter = newRateLimiter(cfg.RateLimit, cfg.RateBurst, func() time.Time { return s.now() })
	}
	if err := s.loadState(); err != nil {
		return nil, err
	}
	if err := s.loadJobs(); err != nil {
		return nil, err
	}
	if err := s.loadDedup(); err != nil {
		return nil, err
	}
	// Settle leases recovered from the journal now that the dedup index is
	// loaded, with one reaper tick: a committed lease resolves to done, an
	// expired one is reclaimed (or quarantined) onto the queue behind the
	// recovered jobs, a still-valid one stays leased for its holder to
	// finish.
	s.reapLeases()
	if !s.externalWorkers {
		s.startJobWorkers()
	}
	s.startReaper()
	s.startStoreRecovery()
	return s, nil
}

// Handler returns the HTTP API. With a keystore the /api/v1 surface sits
// behind the bearer-authentication middleware; /healthz, /readyz and
// /metrics stay anonymous.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/v1/analyses", s.handleListAnalyses)
	mux.HandleFunc("POST /api/v1/analyses", s.handleSubmit)
	// ":" is a literal character in Go 1.22 mux patterns, so this registers
	// the distinct path "/api/v1/analyses:batch".
	mux.HandleFunc("POST /api/v1/analyses:batch", s.handleSubmitBatch)
	mux.HandleFunc("GET /api/v1/analyses/{id}", s.handleGetAnalysis)
	mux.HandleFunc("GET /api/v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("POST /api/v1/workqueue/acquire", s.handleAcquire)
	mux.HandleFunc("POST /api/v1/workqueue/jobs/{id}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /api/v1/workqueue/jobs/{id}/complete", s.handleComplete)
	mux.HandleFunc("POST /api/v1/workqueue/jobs/{id}/fail", s.handleFail)
	mux.HandleFunc("POST /api/v1/analyses/{id}/authenticate", s.handleAuthenticate)
	mux.HandleFunc("POST /api/v1/users", s.handleEnroll)
	mux.HandleFunc("GET /api/v1/users/{id}/analyses", s.handleUserAnalyses)
	mux.HandleFunc("POST /api/v1/keys", s.handleIssueKey)
	mux.HandleFunc("GET /api/v1/keys", s.handleListKeys)
	mux.HandleFunc("DELETE /api/v1/keys/{id}", s.handleRevokeKey)
	mux.HandleFunc("GET /api/v1/audit", s.handleAudit)
	return s.withAuth(mux)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors after the header is committed can only be logged;
	// for this in-memory service the encode cannot fail on our types.
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the uniform v1 error envelope
// {"error":{"code":..., "message":...}}.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorEnvelope{Error: errorDetail{Code: code, Message: err.Error()}})
}

func (s *Service) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe: /healthz answers "the process is
// alive", /readyz answers "send this instance traffic". Not ready while
// draining (Close/Shutdown ran — submissions would bounce with 503 anyway),
// while the store is in read-only degraded mode, or while the journal
// directory is unwritable (an accepted upload could not be made durable).
func (s *Service) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	draining := s.jobsClosed
	s.mu.RUnlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ready": false, "reason": "draining"})
		return
	}
	if s.degraded.Load() {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ready": false, "reason": "store degraded: " + s.degradedReason()})
		return
	}
	if err := s.storeProbe(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ready": false, "reason": fmt.Sprintf("journal unwritable: %v", err)})
		return
	}
	// The audit chain is probed too: a full disk under audit.log would
	// otherwise report ready while every authenticated request 500s on its
	// unappendable trail.
	if s.auditLog != nil {
		if err := s.auditLog.Probe(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]any{"ready": false, "reason": fmt.Sprintf("audit trail unappendable: %v", err)})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// SubmitResponse is returned by the upload endpoint.
type SubmitResponse struct {
	ID     string `json:"id"`
	Report Report `json:"report"`
}

// Submission scratch pools: sustained upload throughput must not be bound
// by per-request garbage. bodyBufPool recycles the request-body read buffer
// (the sync path hands its bytes straight to the analysis and returns them;
// the async path clones into the job payload, which has to outlive the
// request anyway). decodeBufPool recycles the zip/CSV decode storage across
// analyses — safe because Analyze copies everything it reports and retains
// nothing from the decoded acquisition.
var (
	bodyBufPool   = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	decodeBufPool = sync.Pool{New: func() any { return new(csvio.DecodeBuffer) }}
)

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.admitMutation(w) || !s.admitSubmit(w, r) {
		return
	}
	p := s.principal(r)
	if !s.authorize(w, r, auth.ActionCreate, auth.Object{Type: auth.ObjectAnalysis, Owner: p.Subject},
		"analysis.create", "") {
		return
	}
	// MaxBytesReader fails the read at the limit — an oversized upload gets
	// its 413 as soon as the limit is crossed instead of being buffered to
	// the end first (and the server closes the connection on it).
	r.Body = http.MaxBytesReader(w, r.Body, s.uploadLimit)
	bodyBuf := bodyBufPool.Get().(*bytes.Buffer)
	bodyBuf.Reset()
	defer bodyBufPool.Put(bodyBuf)
	_, err := bodyBuf.ReadFrom(r.Body)
	body := bodyBuf.Bytes()
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
				fmt.Errorf("upload exceeds the %d byte limit", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("reading upload: %w", err))
		return
	}
	key, err := captureKeyFor(r.Header.Get("Idempotency-Key"), body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	// Idempotency keys are namespaced per tenant so one patient's key (or a
	// guessed digest) can never resolve to another patient's analysis.
	key = scopedCaptureKey(p.Subject, key)
	var res submitResult
	switch async := r.URL.Query().Get("async"); async {
	case "", "0", "false":
		// The sync path: a duplicate of a stored capture answers 200 with the
		// original result, one in flight 409 duplicate_in_flight +
		// Retry-After, and only a new capture that survives the
		// priority-lane shed check runs.
		res = s.submitInline(body, key, p.Subject, p, "analysis.create", true)
	case "1", "true":
		// The job payload outlives this request (queued, journaled), so it
		// cannot alias the pooled read buffer.
		res = s.enqueueJob(bytes.Clone(body), key, p)
	default:
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("bad async parameter %q", async))
		return
	}
	writeSubmitResult(w, res)
}

// writeSubmitResult renders one submission's outcome, sync or async:
// Location and Retry-After when set, then the error envelope, the job
// resource (async) or the stored analysis (sync).
func writeSubmitResult(w http.ResponseWriter, res submitResult) {
	if res.location != "" {
		w.Header().Set("Location", res.location)
	}
	if res.retryAfter > 0 {
		writeRetryAfter(w, res.retryAfter)
	}
	switch {
	case res.err != nil:
		writeError(w, res.status, res.code, res.err)
	case res.job != nil:
		writeJSON(w, res.status, res.job)
	default:
		writeJSON(w, res.status, SubmitResponse{ID: res.id, Report: res.report})
	}
}

// storeProbe verifies the durable backend accepts writes. Without a backend
// the service is always ready.
func (s *Service) storeProbe() error {
	if s.store == nil {
		return nil
	}
	return s.store.Probe()
}

// AnalysisSummary is one row of the analyses listing.
type AnalysisSummary struct {
	ID        string  `json:"id"`
	UserID    string  `json:"user_id,omitempty"`
	Owner     string  `json:"owner,omitempty"`
	PeakCount int     `json:"peak_count"`
	DurationS float64 `json:"duration_s"`
}

// pageParams parses the optional ?limit=&offset= pagination query. limit 0
// (the default) means "no limit".
func pageParams(r *http.Request) (limit, offset int, err error) {
	q := r.URL.Query()
	if v := q.Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit < 0 {
			return 0, 0, fmt.Errorf("bad limit %q", v)
		}
	}
	if v := q.Get("offset"); v != "" {
		offset, err = strconv.Atoi(v)
		if err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("bad offset %q", v)
		}
	}
	return limit, offset, nil
}

// paginate applies limit/offset to a sorted slice and stamps the
// X-Total-Count header with the pre-slicing length.
func paginate[T any](w http.ResponseWriter, items []T, limit, offset int) []T {
	w.Header().Set("X-Total-Count", strconv.Itoa(len(items)))
	if offset >= len(items) {
		return items[:0]
	}
	items = items[offset:]
	if limit > 0 && limit < len(items) {
		items = items[:limit]
	}
	return items
}

func (s *Service) handleListAnalyses(w http.ResponseWriter, r *http.Request) {
	limit, offset, err := pageParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	// The listing is scope-filtered, not authorized wholesale: an owner key
	// sees exactly the rows whose GET it could perform, so the listing never
	// leaks another tenant's existence.
	p := s.principal(r)
	s.mu.RLock()
	summaries := make([]AnalysisSummary, 0, len(s.analyses))
	for id, stored := range s.analyses {
		if !auth.CanRead(p, auth.ObjectAnalysis, stored.Owner) {
			continue
		}
		summaries = append(summaries, AnalysisSummary{
			ID:        id,
			UserID:    stored.UserID,
			Owner:     stored.Owner,
			PeakCount: stored.Report.PeakCount,
			DurationS: stored.Report.DurationS,
		})
	}
	s.mu.RUnlock()
	sort.Slice(summaries, func(i, j int) bool {
		return lessAnalysisID(summaries[i].ID, summaries[j].ID)
	})
	summaries = paginate(w, summaries, limit, offset)
	writeJSON(w, http.StatusOK, map[string][]AnalysisSummary{"analyses": summaries})
}

func (s *Service) handleGetAnalysis(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.RLock()
	stored, ok := s.analyses[id]
	s.mu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("analysis %q not found", id))
		return
	}
	if !s.authorize(w, r, auth.ActionRead, auth.Object{Type: auth.ObjectAnalysis, Owner: stored.Owner},
		"analysis.read", id) {
		return
	}
	s.auditEvent(s.principal(r), "analysis.read", id, audit.OutcomeOK, "")
	writeJSON(w, http.StatusOK, stored.Report)
}

func (s *Service) handleAuthenticate(w http.ResponseWriter, r *http.Request) {
	// Authentication links an identity to the analysis — a durable mutation —
	// so a degraded store answers 503 before any work runs.
	if !s.admitMutation(w) {
		return
	}
	id := r.PathValue("id")
	s.mu.RLock()
	stored, ok := s.analyses[id]
	s.mu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("analysis %q not found", id))
		return
	}
	// Authentication mutates the analysis (links it to an identity), so it
	// is an update on the analysis object.
	if !s.authorize(w, r, auth.ActionUpdate, auth.Object{Type: auth.ObjectAnalysis, Owner: stored.Owner},
		"analysis.authenticate", id) {
		return
	}
	res, err := AuthenticateReport(stored.Report, s.model, s.registry, s.flowUlPerMin)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, CodeUnprocessable, err)
		return
	}
	s.mu.Lock()
	s.metrics.Authentications++
	if res.Authenticated {
		s.metrics.AuthAccepted++
	}
	s.mu.Unlock()
	if res.Authenticated {
		s.mu.Lock()
		persistErr := s.linkAnalysisUserLocked(id, stored, res.UserID)
		s.mu.Unlock()
		if persistErr != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, persistErr)
			return
		}
	}
	outcome := audit.OutcomeDenied
	if res.Authenticated {
		outcome = audit.OutcomeOK
	}
	s.auditEvent(s.principal(r), "analysis.authenticate", id, outcome,
		fmt.Sprintf("authenticated=%t", res.Authenticated))
	writeJSON(w, http.StatusOK, res)
}

// linkAnalysisUserLocked points an authenticated analysis at userID,
// honouring the persist-then-commit invariant: the updated document is
// written to disk from a copy first, and only a successful write mutates the
// in-memory record and the byUser index. The old code committed first and
// persisted second, so a failed write answered 500 while the link survived
// in memory — a ghost the next restart silently dropped. A re-link to a
// different user (an identifier re-enrolled to someone else) also migrates
// the byUser index; previously the old user kept the analysis in their
// listing forever. No-op when the analysis already links to userID.
// Callers must hold s.mu for writing.
func (s *Service) linkAnalysisUserLocked(id string, stored *storedAnalysis, userID string) error {
	if stored.UserID == userID {
		return nil
	}
	updated := *stored
	updated.UserID = userID
	if err := s.persistAnalysis(id, &updated); err != nil {
		return err
	}
	if prev := stored.UserID; prev != "" {
		ids := s.byUser[prev]
		for i, aid := range ids {
			if aid == id {
				ids = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(ids) == 0 {
			delete(s.byUser, prev)
		} else {
			s.byUser[prev] = ids
		}
	}
	stored.UserID = userID
	s.byUser[userID] = append(s.byUser[userID], id)
	return nil
}

// EnrollRequest registers a user's cyto-coded identifier (performed by the
// healthcare provider out of band — the patient never types it anywhere).
type EnrollRequest struct {
	UserID string `json:"user_id"`
	// Identifier maps particle type names to level indexes, e.g.
	// {"bead-3.58um": 2, "bead-7.8um": 4}.
	Identifier map[string]int `json:"identifier"`
}

func (s *Service) handleEnroll(w http.ResponseWriter, r *http.Request) {
	// Enrollment registers an identity for someone else, so it is an
	// unowned user-object create: clinic and admin only.
	if !s.authorize(w, r, auth.ActionCreate, auth.Object{Type: auth.ObjectUser}, "user.enroll", "") {
		return
	}
	var req EnrollRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("decoding enrollment: %w", err))
		return
	}
	id := make(beads.Identifier, len(req.Identifier))
	for name, lv := range req.Identifier {
		t, err := microfluidic.TypeFromName(name)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
		id[t] = lv
	}
	if err := s.registry.Enroll(req.UserID, id); err != nil {
		status, code := http.StatusBadRequest, CodeInvalidRequest
		if errors.Is(err, beads.ErrDuplicateIdentifier) {
			status, code = http.StatusConflict, CodeConflict
		}
		writeError(w, status, code, err)
		return
	}
	s.auditEvent(s.principal(r), "user.enroll", req.UserID, audit.OutcomeOK, "")
	writeJSON(w, http.StatusCreated, map[string]string{"user_id": req.UserID})
}

func (s *Service) handleUserAnalyses(w http.ResponseWriter, r *http.Request) {
	limit, offset, err := pageParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	user := r.PathValue("id")
	// The per-user listing is a user-scoped read: a patient key may read its
	// own listing (subject == path id), clinic/admin may read any.
	if !s.authorize(w, r, auth.ActionRead, auth.Object{Type: auth.ObjectUser, Owner: user},
		"user.read", user) {
		return
	}
	s.auditEvent(s.principal(r), "user.read", user, audit.OutcomeOK, "")
	s.mu.RLock()
	ids := append([]string(nil), s.byUser[user]...)
	s.mu.RUnlock()
	// Numeric order, matching the analyses listing: lexical sort would put
	// an-10 before an-2.
	sortAnalysisIDs(ids)
	ids = paginate(w, ids, limit, offset)
	writeJSON(w, http.StatusOK, map[string][]string{"analysis_ids": ids})
}

// Metrics are the service's lifetime counters and point-in-time gauges,
// exposed at GET /metrics. Each field declares one metric: its JSON name, its
// kind (metric:"counter" or metric:"gauge") and its Prometheus HELP text.
// WritePrometheus derives each family name from them (DESIGN.md §7) and Sub
// subtracts the counters, so no other code lists the metrics.
type Metrics struct {
	Uploads         int64 `json:"uploads" metric:"counter" help:"Captures accepted and stored (sync and async)."`
	UploadErrors    int64 `json:"upload_errors" metric:"counter" help:"Uploads that failed decode, analysis, or storage."`
	Authentications int64 `json:"authentications" metric:"counter" help:"Cyto-coded authentication attempts."`
	AuthAccepted    int64 `json:"auth_accepted" metric:"counter" help:"Authentication attempts that matched an enrolled identifier."`
	StoredAnalyses  int   `json:"stored_analyses" metric:"gauge" help:"Analyses currently stored."`
	EnrolledUsers   int   `json:"enrolled_users" metric:"gauge" help:"Identifiers in the enrollment registry."`
	JobsEnqueued    int64 `json:"jobs_enqueued" metric:"counter" help:"Async jobs accepted onto the queue."`
	JobsRejected    int64 `json:"jobs_rejected" metric:"counter" help:"Async submissions bounced by queue-depth backpressure."`
	JobsCompleted   int64 `json:"jobs_completed" metric:"counter" help:"Async jobs that reached done."`
	JobsFailed      int64 `json:"jobs_failed" metric:"counter" help:"Async jobs that reached failed."`
	JobsEvicted     int64 `json:"jobs_evicted" metric:"counter" help:"Terminal job records dropped by retention."`
	JobsRecovered   int64 `json:"jobs_recovered" metric:"counter" help:"Journaled jobs re-enqueued at startup."`
	// A failed mid-run journal write does not fail the job, but a crash
	// would rerun it.
	JobJournalErrors int64 `json:"job_journal_errors" metric:"counter" help:"Mid-run job journal writes that failed."`
	JobEvictErrors   int64 `json:"job_evict_errors" metric:"counter" help:"Document deletes that failed and await the next sweep's retry."`
	StoreSalvaged    int64 `json:"store_salvaged" metric:"counter" help:"Corrupt documents quarantined at load."`
	LeaseExpirations int64 `json:"lease_expirations" metric:"counter" help:"Worker leases that expired without a heartbeat."`
	JobsReclaimed    int64 `json:"jobs_reclaimed" metric:"counter" help:"Expired-lease jobs re-enqueued by the reaper."`
	JobsPoisoned     int64 `json:"jobs_poisoned" metric:"counter" help:"Jobs quarantined after exhausting their attempt budget."`
	RateLimited      int64 `json:"rate_limited" metric:"counter" help:"Submissions bounced by the per-client rate limiter."`
	Shed             int64 `json:"shed" metric:"counter" help:"Submissions shed by the queue-wait estimator."`
	DedupHits        int64 `json:"dedup_hits" metric:"counter" help:"Duplicate submissions answered from the idempotency index."`
	// The index journal is best-effort: after a failed write that capture
	// may re-run once after a crash.
	DedupJournalErrors int64 `json:"dedup_journal_errors" metric:"counter" help:"Idempotency index journal writes that failed."`
	AuthDenied         int64 `json:"auth_denied" metric:"counter" help:"Requests refused for missing or bad credentials (401)."`
	PermissionDenied   int64 `json:"permission_denied" metric:"counter" help:"Requests refused by RBAC (403)."`
	// The audit log counts its own failed appends (Snapshot reads them); the
	// request still completed, and the trail has a gap.
	AuditJournalErrors int64 `json:"audit_journal_errors" metric:"counter" help:"Audit-trail appends that failed."`
	BatchRequests      int64 `json:"batch_requests" metric:"counter" help:"Batch submissions admitted past whole-batch validation."`
	BatchItems         int64 `json:"batch_items" metric:"counter" help:"Items carried by admitted batch submissions."`
	BatchItemErrors    int64 `json:"batch_item_errors" metric:"counter" help:"Items that failed inside an admitted batch."`
	// A batch is rejected whole when it is malformed, oversized,
	// mixed-tenant, rate-limited or shed.
	BatchRejected int64 `json:"batch_rejected" metric:"counter" help:"Whole batches rejected before any item ran."`
	DedupEntries  int   `json:"dedup_entries" metric:"gauge" help:"Capture keys in the idempotency index."`
	QueueDepth    int   `json:"queue_depth" metric:"gauge" help:"Async jobs waiting for a worker."`
	QueueWaitMS   int64 `json:"queue_wait_ms" metric:"gauge" help:"Estimated queue wait for a newly enqueued job."`
	AuditRecords  int   `json:"audit_records" metric:"gauge" help:"Records in the audit chain."`
	WorkersActive int   `json:"workers_active" metric:"gauge" help:"Worker daemons seen on the workqueue API within two lease TTLs."`
	StoreDegraded int   `json:"store_degraded" metric:"gauge" help:"1 while the service is read-only because durable writes are failing."`
}

// Snapshot returns the current counters.
func (s *Service) Snapshot() Metrics {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.metrics
	m.StoredAnalyses = len(s.analyses)
	m.EnrolledUsers = s.registry.Len()
	m.DedupEntries = len(s.dedup)
	m.QueueDepth = len(s.queue)
	m.QueueWaitMS = s.estQueueWaitLocked().Milliseconds()
	m.WorkersActive = s.activeWorkersLocked()
	if s.degraded.Load() {
		m.StoreDegraded = 1
	}
	if s.auditLog != nil {
		m.AuditRecords = s.auditLog.Len()
		m.AuditJournalErrors = s.auditLog.AppendErrors()
	}
	return m
}

// Sub returns what happened between two snapshots: m − before for every
// counter, m's own value for every gauge.
func (m Metrics) Sub(before Metrics) Metrics {
	d := reflect.ValueOf(&m).Elem()
	b := reflect.ValueOf(before)
	for i := range d.NumField() {
		if d.Type().Field(i).Tag.Get("metric") == promexp.TypeCounter {
			d.Field(i).SetInt(d.Field(i).Int() - b.Field(i).Int())
		}
	}
	return m
}

// handleMetrics serves the operational counters: the historical JSON
// document by default, the Prometheus text exposition format when the caller
// asks for it (?format=prometheus, or an Accept header advertising
// text/plain / OpenMetrics — what real scrapers send). See metrics_prom.go.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	prom, ok := wantsPrometheus(r)
	if !ok {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			fmt.Errorf("bad format parameter %q (want json or prometheus)", r.URL.Query().Get("format")))
		return
	}
	if !prom {
		writeJSON(w, http.StatusOK, s.Snapshot())
		return
	}
	w.Header().Set("Content-Type", promexp.ContentType)
	// The exposition is rendered to the response directly; an encode error
	// mid-stream can only abort the scrape.
	_ = s.WritePrometheus(w)
}
