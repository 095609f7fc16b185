// Package service implements the fetchd HTTP analysis service: a
// long-running front end over the fetch pipeline that serves repeated
// traffic from the content-addressed result cache instead of paying a
// cold analysis per request.
//
// Endpoints (JSON responses unless noted; see docs/API.md for the
// full schema and curl examples):
//
//	POST /v1/analyze        analyze an uploaded ELF binary (request
//	                        body = raw bytes), or — with a JSON body
//	                        {"sha256": "<hex>"} — return the cached
//	                        result for an already-seen binary
//	POST /v1/jobs           async form of analyze: returns a job ID
//	                        immediately, the analysis runs detached
//	GET  /v1/jobs/{id}      poll a job (queued/running/done/failed)
//	GET  /v1/result/{sha256} cached result for a binary hash, or 404
//	GET  /v1/healthz        liveness probe
//	GET  /v1/stats          cache and request counters (JSON)
//	GET  /metrics           the same counters as Prometheus text
//	                        exposition (no dependencies)
//
// Admission control is explicit and two-staged: at most
// Config.MaxInFlight analyses run at once, at most Config.MaxQueued
// requests wait for a slot (each wait bounded by the request context
// and Config.QueueTimeout), and anything beyond both bounds is
// rejected immediately with 429 + Retry-After rather than left
// hanging. Synchronous handlers spawn no goroutines; async jobs run
// on per-job workers that Close waits for, so shutdown is
// http.Server.Shutdown followed by Server.Close.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fetch"
)

// Config parameterizes New.
type Config struct {
	// Cache serves and stores analysis results. Required.
	Cache *fetch.Cache
	// MaxInFlight bounds concurrent analyses; non-positive means one
	// per available CPU.
	MaxInFlight int
	// MaxQueued bounds how many requests may wait for an analysis slot
	// before new arrivals are rejected 429. Zero selects
	// DefaultMaxQueuedPerSlot×MaxInFlight; negative disables queueing
	// entirely (a busy server answers 429 immediately).
	MaxQueued int
	// QueueTimeout caps how long an admitted-to-the-queue request may
	// wait for a slot before a 503; non-positive selects
	// DefaultQueueTimeout. The client context still cancels earlier
	// waits.
	QueueTimeout time.Duration
	// MaxUploadBytes bounds the accepted binary size; non-positive
	// selects DefaultMaxUploadBytes.
	MaxUploadBytes int64
	// SpoolDir is where uploads are streamed to before analysis.
	// Uploads never sit whole in memory: the body is copied straight to
	// a temp file under SpoolDir (hashed on the way through) and the
	// analysis runs file-backed against it. Empty selects os.TempDir().
	SpoolDir string
	// JobTTL is how long a finished async job remains pollable;
	// non-positive selects DefaultJobTTL.
	JobTTL time.Duration
	// MaxJobs bounds the job store (live + unexpired finished jobs);
	// non-positive selects DefaultMaxJobs.
	MaxJobs int
	// Logger, when non-nil, receives one structured access-log record
	// per request (request_id, method, path, status, sizes, duration).
	// Nil disables access logging; metrics are recorded either way.
	Logger *slog.Logger
}

// Defaults applied by New for Config fields left zero.
const (
	// DefaultMaxUploadBytes is the upload size cap when Config leaves
	// it unset (64 MiB — generously above any .eh_frame-carrying
	// binary the evaluation uses).
	DefaultMaxUploadBytes = 64 << 20
	// DefaultMaxQueuedPerSlot scales the default admission queue with
	// the in-flight bound: MaxQueued = 4×MaxInFlight.
	DefaultMaxQueuedPerSlot = 4
	// DefaultQueueTimeout bounds a queued request's wait for a slot.
	DefaultQueueTimeout = 10 * time.Second
	// DefaultJobTTL keeps finished async jobs pollable for 15 minutes.
	DefaultJobTTL = 15 * time.Minute
	// DefaultMaxJobs bounds the async job store.
	DefaultMaxJobs = 1024
	// maxHashBodyBytes bounds the {"sha256": ...} lookup body; larger
	// bodies are 413, not silently truncated into a JSON error.
	maxHashBodyBytes = 4096
)

// Server is the fetchd service state: the shared result cache, the
// admission gate, the async job store, and the counters /v1/stats and
// /metrics report.
type Server struct {
	cache     *fetch.Cache
	adm       *admission
	jobs      *jobStore
	maxUpload int64
	spoolDir  string
	logger    *slog.Logger
	start     time.Time

	analyzeRequests atomic.Int64
	analyzeHits     atomic.Int64
	analyzeMisses   atomic.Int64
	analyzeErrors   atomic.Int64
	// analyzeRejected counts the synchronous-analyze share of
	// queueRejected, so every analyzeRequests increment has exactly one
	// terminal counter (hit, miss, error, cancelled, timeout, or
	// rejected) — the accounting identity the load test asserts.
	analyzeRejected atomic.Int64
	queueRejected   atomic.Int64
	queueCancelled  atomic.Int64
	queueTimeouts   atomic.Int64
	byHashRequests  atomic.Int64
	byHashHits      atomic.Int64
	resultRequests  atomic.Int64
	resultHits      atomic.Int64
	jobsSubmitted   atomic.Int64
	jobsCompleted   atomic.Int64
	jobsFailed      atomic.Int64
	jobsActive      atomic.Int64
	inFlight        atomic.Int64
	peakInFlight    atomic.Int64
	reqSeq          atomic.Int64

	queueWait  *histogram
	analyzeDur *histogram
	httpReqs   *labeledCounter
}

// New builds a Server over a result cache, resolving every defaulted
// Config field (the accessors report the resolved values).
func New(cfg Config) (*Server, error) {
	if cfg.Cache == nil {
		return nil, errors.New("service: Config.Cache is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.MaxQueued == 0:
		cfg.MaxQueued = DefaultMaxQueuedPerSlot * cfg.MaxInFlight
	case cfg.MaxQueued < 0:
		cfg.MaxQueued = 0
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = DefaultQueueTimeout
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = os.TempDir()
	}
	if cfg.JobTTL <= 0 {
		cfg.JobTTL = DefaultJobTTL
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	return &Server{
		cache:      cfg.Cache,
		adm:        newAdmission(cfg.MaxInFlight, cfg.MaxQueued, cfg.QueueTimeout),
		jobs:       newJobStore(cfg.MaxJobs, cfg.JobTTL),
		maxUpload:  cfg.MaxUploadBytes,
		spoolDir:   cfg.SpoolDir,
		logger:     cfg.Logger,
		start:      time.Now(),
		queueWait:  newHistogram(durationBuckets),
		analyzeDur: newHistogram(durationBuckets),
		httpReqs:   newLabeledCounter(),
	}, nil
}

// Resolved-config accessors: the effective values after New applied
// defaults, so callers (and the fetchd startup log) can report what
// the server actually runs with rather than the raw flags.

// MaxInFlight returns the resolved concurrent-analysis bound.
func (s *Server) MaxInFlight() int { return cap(s.adm.slots) }

// MaxQueued returns the resolved admission-queue capacity.
func (s *Server) MaxQueued() int { return int(s.adm.maxQueued) }

// QueueTimeout returns the resolved queue deadline.
func (s *Server) QueueTimeout() time.Duration { return s.adm.timeout }

// MaxUploadBytes returns the resolved upload size cap.
func (s *Server) MaxUploadBytes() int64 { return s.maxUpload }

// SpoolDir returns the resolved upload spool directory.
func (s *Server) SpoolDir() string { return s.spoolDir }

// Close stops the async job subsystem: further submissions are
// rejected, queued jobs fail with a shutdown error, and Close returns
// once every job worker has exited. Call it after the enclosing
// http.Server has drained; synchronous handlers need no cleanup.
func (s *Server) Close() {
	s.jobs.close()
	s.jobs.wg.Wait()
}

// Handler returns the service's HTTP handler — the route mux wrapped
// in the request-ID / access-log / metrics middleware — ready for
// http.Server or httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	mux.HandleFunc("/v1/result/", s.handleResult)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("/v1/jobs/", s.handleJobGet)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return s.withMiddleware(mux)
}

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{
		"error": fmt.Sprintf(format, args...),
	})
}

// writeJSON writes v as a compact JSON 200 response. An embedded
// EncodeResult document is compacted too: indentation would add about
// 60% to the body for no reader's benefit.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// optionsFromQuery maps the strategy query parameters shared by the
// analyze, jobs, and result endpoints (?fde_only=1, ?no_xref=1,
// ?no_tailcall=1) onto analysis options. Absent parameters mean full
// FETCH — the same default as the library and CLI.
func optionsFromQuery(r *http.Request) []fetch.Option {
	var opts []fetch.Option
	q := r.URL.Query()
	boolish := func(name string) bool {
		v := q.Get(name)
		return v == "1" || v == "true"
	}
	if boolish("fde_only") {
		opts = append(opts, fetch.FDEOnly())
	}
	if boolish("no_xref") {
		opts = append(opts, fetch.WithoutXref())
	}
	if boolish("no_tailcall") {
		opts = append(opts, fetch.WithoutTailCall())
	}
	return opts
}

// analyzeResponse is the envelope of a successful analyze or result
// request: the binary's content address, whether the cache served it,
// and the serialized result (the docs/API.md schema, verbatim).
type analyzeResponse struct {
	SHA256 string          `json:"sha256"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// respondResult encodes a result into the response envelope.
func respondResult(w http.ResponseWriter, sum string, cached bool, res *fetch.Result) {
	blob, err := fetch.EncodeResult(res)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "encoding result: %v", err)
		return
	}
	writeJSON(w, analyzeResponse{SHA256: sum, Cached: cached, Result: blob})
}

// retryAfterSeconds estimates how long a 429'd client should back off:
// the queue depth ahead of it times the observed mean analysis time,
// divided across the slots, clamped to [1s, 60s].
func (s *Server) retryAfterSeconds() string {
	sec := 1
	if n := s.analyzeDur.count.Load(); n > 0 {
		avg := time.Duration(s.analyzeDur.sumNS.Load() / n)
		est := time.Duration(s.adm.queued.Load()+1) * avg / time.Duration(cap(s.adm.slots))
		sec = int(est/time.Second) + 1
		if sec > 60 {
			sec = 60
		}
	}
	return strconv.Itoa(sec)
}

// enterFlight increments the in-flight gauge and maintains its
// high-water mark (how /v1/stats and the tests observe that the bound
// held).
func (s *Server) enterFlight() {
	now := s.inFlight.Add(1)
	for {
		peak := s.peakInFlight.Load()
		if now <= peak || s.peakInFlight.CompareAndSwap(peak, now) {
			return
		}
	}
}

// exitFlight undoes enterFlight.
func (s *Server) exitFlight() { s.inFlight.Add(-1) }

// spoolUpload streams a bounded request body to a temp file under the
// spool directory, hashing it on the way through, so an upload's heap
// cost is one copy buffer rather than the binary. Error semantics stay
// admission-hardened: exceeding the upload cap is 413 (detected via
// *http.MaxBytesError, never inferred from "some read error"), any
// other read failure — a client that disconnected mid-upload, a broken
// transport — is 400, and an empty body is 400. On false the response
// has been written, the error counted, and the temp file removed; on
// true the caller owns the returned path and must os.Remove it.
func (s *Server) spoolUpload(w http.ResponseWriter, r *http.Request) (string, [32]byte, bool) {
	var sum [32]byte
	tmp, err := os.CreateTemp(s.spoolDir, "fetchd-upload-*")
	if err != nil {
		s.analyzeErrors.Add(1)
		jsonError(w, http.StatusInternalServerError, "spooling upload: %v", err)
		return "", sum, false
	}
	discard := func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}
	h := sha256.New()
	n, err := io.Copy(tmp, io.TeeReader(http.MaxBytesReader(w, r.Body, s.maxUpload), h))
	if err != nil {
		discard()
		s.analyzeErrors.Add(1)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			jsonError(w, http.StatusRequestEntityTooLarge,
				"body exceeds the %d-byte upload limit", mbe.Limit)
		} else {
			jsonError(w, http.StatusBadRequest, "reading request body: %v", err)
		}
		return "", sum, false
	}
	if n == 0 {
		discard()
		s.analyzeErrors.Add(1)
		jsonError(w, http.StatusBadRequest, "empty body; POST the ELF bytes")
		return "", sum, false
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		s.analyzeErrors.Add(1)
		jsonError(w, http.StatusInternalServerError, "spooling upload: %v", err)
		return "", sum, false
	}
	copy(sum[:], h.Sum(nil))
	return tmp.Name(), sum, true
}

// handleAnalyze serves POST /v1/analyze. A JSON body is a by-hash
// lookup of an already-analyzed binary; any other body is the binary
// itself. Uploads pass the admission gate BEFORE the body is spooled,
// so MaxInFlight+MaxQueued bounds concurrent spool files as well as
// CPU — and since the body streams to disk and the analysis runs
// file-backed, no request ever holds the whole binary on the heap; a
// request beyond both bounds gets an immediate 429 with Retry-After, a
// queued request is bounded by the client context and the queue
// deadline.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	opts := optionsFromQuery(r)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		s.analyzeByHash(w, r, opts)
		return
	}

	s.analyzeRequests.Add(1)

	wait, err := s.adm.acquire(r.Context())
	switch {
	case errors.Is(err, errQueueFull):
		s.queueRejected.Add(1)
		s.analyzeRejected.Add(1)
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		jsonError(w, http.StatusTooManyRequests,
			"admission queue full (%d in flight, %d queued); retry later",
			s.inFlight.Load(), s.adm.queued.Load())
		return
	case errors.Is(err, errQueueCancelled):
		// The client gave up; that is their failure, not ours — count
		// it apart from server errors so the error rate stays honest.
		s.queueCancelled.Add(1)
		s.queueWait.observe(wait)
		jsonError(w, http.StatusServiceUnavailable,
			"client cancelled while queued: %v", r.Context().Err())
		return
	case errors.Is(err, errQueueTimeout):
		s.queueTimeouts.Add(1)
		s.queueWait.observe(wait)
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		jsonError(w, http.StatusServiceUnavailable,
			"no analysis slot within the %s queue deadline", s.adm.timeout)
		return
	}
	defer s.adm.release()
	s.queueWait.observe(wait)
	s.enterFlight()
	defer s.exitFlight()

	path, sum, ok := s.spoolUpload(w, r)
	if !ok {
		return
	}
	defer os.Remove(path)

	t0 := time.Now()
	res, cached, err := s.cache.AnalyzeFile(path, opts...)
	s.analyzeDur.observe(time.Since(t0))

	if err != nil {
		s.analyzeErrors.Add(1)
		jsonError(w, http.StatusUnprocessableEntity, "analysis failed: %v", err)
		return
	}
	if cached {
		s.analyzeHits.Add(1)
	} else {
		s.analyzeMisses.Add(1)
	}
	respondResult(w, hex.EncodeToString(sum[:]), cached, res)
}

// analyzeByHash serves the {"sha256": ...} form of POST /v1/analyze:
// return the cached result or tell the caller to upload the binary.
// Bodies beyond maxHashBodyBytes are 413 — not silently truncated
// into a confusing JSON parse error.
func (s *Server) analyzeByHash(w http.ResponseWriter, r *http.Request, opts []fetch.Option) {
	s.byHashRequests.Add(1)
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxHashBodyBytes+1))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	if len(raw) > maxHashBodyBytes {
		jsonError(w, http.StatusRequestEntityTooLarge,
			"JSON lookup body exceeds %d bytes", maxHashBodyBytes)
		return
	}
	var req struct {
		SHA256 string `json:"sha256"`
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		jsonError(w, http.StatusBadRequest, "bad JSON body: %v", err)
		return
	}
	sum, err := parseSHA256(req.SHA256)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, ok := s.cache.Get(sum, opts...)
	if !ok {
		jsonError(w, http.StatusNotFound,
			"result for %s not cached; POST the binary to /v1/analyze", req.SHA256)
		return
	}
	s.byHashHits.Add(1)
	respondResult(w, req.SHA256, true, res)
}

// handleResult serves GET /v1/result/{sha256}: a pure cache lookup
// that never triggers analysis.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	s.resultRequests.Add(1)
	hexSum := strings.TrimPrefix(r.URL.Path, "/v1/result/")
	sum, err := parseSHA256(hexSum)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, ok := s.cache.Get(sum, optionsFromQuery(r)...)
	if !ok {
		jsonError(w, http.StatusNotFound,
			"result for %s not cached; POST the binary to /v1/analyze", hexSum)
		return
	}
	s.resultHits.Add(1)
	respondResult(w, hexSum, true, res)
}

// handleHealthz serves the GET liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

// StatsResponse is the /v1/stats payload: request-level counters for
// each endpoint plus the raw cache counters. All durations are integer
// nanoseconds, matching the result schema's unit convention. Every
// number here is read from the same atomics /metrics exposes.
type StatsResponse struct {
	UptimeNS int64 `json:"uptime_ns"`
	InFlight int64 `json:"in_flight"`
	// PeakInFlight is the high-water mark of concurrent analyses; it
	// never exceeds MaxInFlight.
	PeakInFlight int64 `json:"peak_in_flight"`
	MaxInFlight  int   `json:"max_in_flight"`
	// Queued is the number of requests currently waiting for a slot;
	// PeakQueued its high-water mark; MaxQueued the admission bound
	// beyond which arrivals are rejected 429.
	Queued     int64 `json:"queued"`
	PeakQueued int64 `json:"peak_queued"`
	MaxQueued  int   `json:"max_queued"`

	Analyze struct {
		Requests    int64 `json:"requests"`
		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
		Errors      int64 `json:"errors"`
		// QueueRejected counts immediate 429s (queue full);
		// QueueCancelled counts clients that gave up while queued
		// (distinct from Errors — they are client failures);
		// QueueTimeouts counts queue-deadline 503s.
		QueueRejected  int64 `json:"queue_rejected"`
		QueueCancelled int64 `json:"queue_cancelled"`
		QueueTimeouts  int64 `json:"queue_timeouts"`
		QueueWaitNS    int64 `json:"queue_wait_ns_total"`
		AnalyzeNS      int64 `json:"analyze_ns_total"`
		ByHash         int64 `json:"by_hash_requests"`
		ByHashHits     int64 `json:"by_hash_hits"`
	} `json:"analyze"`

	Result struct {
		Requests int64 `json:"requests"`
		Hits     int64 `json:"hits"`
	} `json:"result"`

	// Jobs are the async-API counters: Active is queued+running right
	// now, the totals are lifetime.
	Jobs struct {
		Submitted int64 `json:"submitted"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Active    int64 `json:"active"`
	} `json:"jobs"`

	Cache fetch.CacheStats `json:"cache"`
}

// Stats snapshots the server and cache counters.
func (s *Server) Stats() StatsResponse {
	var sr StatsResponse
	sr.UptimeNS = int64(time.Since(s.start))
	sr.InFlight = s.inFlight.Load()
	sr.PeakInFlight = s.peakInFlight.Load()
	sr.MaxInFlight = cap(s.adm.slots)
	sr.Queued = s.adm.queued.Load()
	sr.PeakQueued = s.adm.peakQueued.Load()
	sr.MaxQueued = int(s.adm.maxQueued)
	sr.Analyze.Requests = s.analyzeRequests.Load()
	sr.Analyze.CacheHits = s.analyzeHits.Load()
	sr.Analyze.CacheMisses = s.analyzeMisses.Load()
	sr.Analyze.Errors = s.analyzeErrors.Load()
	sr.Analyze.QueueRejected = s.queueRejected.Load()
	sr.Analyze.QueueCancelled = s.queueCancelled.Load()
	sr.Analyze.QueueTimeouts = s.queueTimeouts.Load()
	sr.Analyze.QueueWaitNS = s.queueWait.sumNS.Load()
	sr.Analyze.AnalyzeNS = s.analyzeDur.sumNS.Load()
	sr.Analyze.ByHash = s.byHashRequests.Load()
	sr.Analyze.ByHashHits = s.byHashHits.Load()
	sr.Result.Requests = s.resultRequests.Load()
	sr.Result.Hits = s.resultHits.Load()
	sr.Jobs.Submitted = s.jobsSubmitted.Load()
	sr.Jobs.Completed = s.jobsCompleted.Load()
	sr.Jobs.Failed = s.jobsFailed.Load()
	sr.Jobs.Active = s.jobsActive.Load()
	sr.Cache = s.cache.Stats()
	return sr
}

// handleStats serves the GET counters snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, s.Stats())
}

// parseSHA256 decodes a 64-character hex content hash.
func parseSHA256(s string) ([32]byte, error) {
	var sum [32]byte
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(sum) {
		return sum, fmt.Errorf("service: %q is not a 64-char hex sha256", s)
	}
	copy(sum[:], raw)
	return sum, nil
}
