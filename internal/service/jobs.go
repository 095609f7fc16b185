package service

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"fetch"
)

// Job lifecycle states reported by GET /v1/jobs/{id}.
const (
	// JobQueued means the job holds an admission-queue position and is
	// waiting for an analysis slot.
	JobQueued = "queued"
	// JobRunning means the job owns a slot and its analysis is running.
	JobRunning = "running"
	// JobDone means the analysis finished; the result is served by
	// content hash from the shared cache.
	JobDone = "done"
	// JobFailed means the analysis errored or shutdown aborted the job;
	// the response carries the error string.
	JobFailed = "failed"
)

// job is one async analysis tracked by the store. The fields after
// state are written exactly once, before the state transition that
// exposes them, and the store mutex orders both.
type job struct {
	id      string
	state   string
	created time.Time
	expires time.Time // zero until terminal, then created+TTL from completion
	sum     [32]byte
	hexSum  string
	// spoolPath is the temp file the upload was streamed to; the job
	// worker analyzes it file-backed and removes it when done.
	spoolPath string
	opts      []fetch.Option
	cached    bool
	errMsg    string
}

// jobStore is the TTL-bounded in-memory registry behind /v1/jobs.
// Terminal jobs are evicted lazily — every submit and lookup sweeps
// expired entries — so the store needs no reaper goroutine and its
// size is bounded by max live jobs + terminal jobs younger than TTL.
type jobStore struct {
	mu      sync.Mutex
	jobs    map[string]*job
	ttl     time.Duration
	max     int
	closed  bool
	closeCh chan struct{}
	wg      sync.WaitGroup
}

func newJobStore(max int, ttl time.Duration) *jobStore {
	return &jobStore{
		jobs:    make(map[string]*job),
		ttl:     ttl,
		max:     max,
		closeCh: make(chan struct{}),
	}
}

// sweepLocked drops terminal jobs past their TTL. Callers hold mu.
func (js *jobStore) sweepLocked(now time.Time) {
	for id, j := range js.jobs {
		if !j.expires.IsZero() && now.After(j.expires) {
			delete(js.jobs, id)
		}
	}
}

// add registers a new queued job, enforcing the store bound.
func (js *jobStore) add(j *job) error {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.closed {
		return errors.New("server shutting down")
	}
	js.sweepLocked(time.Now())
	if len(js.jobs) >= js.max {
		return errQueueFull
	}
	js.jobs[j.id] = j
	return nil
}

// get looks a job up, sweeping expired entries first.
func (js *jobStore) get(id string) (*job, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.sweepLocked(time.Now())
	j, ok := js.jobs[id]
	return j, ok
}

// snapshot copies a job's visible fields under the store lock.
func (js *jobStore) snapshot(j *job) job {
	js.mu.Lock()
	defer js.mu.Unlock()
	return *j
}

// setRunning transitions a queued job to running.
func (js *jobStore) setRunning(j *job) {
	js.mu.Lock()
	j.state = JobRunning
	js.mu.Unlock()
}

// finish transitions a job to its terminal state and arms the TTL.
func (js *jobStore) finish(j *job, state, errMsg string, cached bool) {
	js.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.cached = cached
	j.expires = time.Now().Add(js.ttl)
	js.mu.Unlock()
}

// close rejects further submissions and wakes queued workers.
func (js *jobStore) close() {
	js.mu.Lock()
	if !js.closed {
		js.closed = true
		close(js.closeCh)
	}
	js.mu.Unlock()
}

// newJobID returns a 16-hex-char random job identifier.
func (s *Server) newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "job-" + hex.EncodeToString([]byte{byte(s.reqSeq.Add(1))})
	}
	return hex.EncodeToString(b[:])
}

// jobResponse is the envelope of both POST /v1/jobs and
// GET /v1/jobs/{id}. Result and SHA256 appear once the job is done;
// Error once it failed.
type jobResponse struct {
	JobID  string          `json:"job_id"`
	State  string          `json:"state"`
	SHA256 string          `json:"sha256,omitempty"`
	Cached bool            `json:"cached,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// handleJobSubmit serves POST /v1/jobs: accept an upload, reserve an
// admission position, and return 202 with a job ID immediately — the
// analysis runs in the background so large uploads don't pin an HTTP
// connection for the analysis's duration. Body-size and error
// semantics match POST /v1/analyze (413 oversize, 400 bad read), and
// like the synchronous path the upload streams to a spool file rather
// than the heap. Admission bounds are shared with the synchronous
// path: a submit beyond MaxInFlight+MaxQueued is rejected 429 rather
// than queued invisibly, so the queue bound caps concurrent spool
// files too.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}

	// Reserve capacity BEFORE spooling the upload, exactly like the
	// synchronous path: a free slot admits directly, otherwise the job
	// takes a queue position (or is bounced 429 like any other request
	// past the bound), so MaxInFlight+MaxQueued caps concurrent job
	// spool files too.
	admitted := s.adm.tryAcquire()
	if !admitted && !s.adm.reserve() {
		s.queueRejected.Add(1)
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		jsonError(w, http.StatusTooManyRequests,
			"admission queue full (%d in flight, %d queued); retry later",
			s.inFlight.Load(), s.adm.queued.Load())
		return
	}
	unreserve := func() {
		if admitted {
			s.adm.release()
		} else {
			s.adm.queued.Add(-1)
		}
	}

	path, sum, ok := s.spoolUpload(w, r)
	if !ok {
		unreserve()
		return
	}

	j := &job{
		id:        s.newJobID(),
		state:     JobQueued,
		created:   time.Now(),
		sum:       sum,
		spoolPath: path,
		opts:      optionsFromQuery(r),
	}
	j.hexSum = hex.EncodeToString(j.sum[:])
	if err := s.jobs.add(j); err != nil {
		unreserve()
		os.Remove(path)
		if errors.Is(err, errQueueFull) {
			s.queueRejected.Add(1)
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			jsonError(w, http.StatusTooManyRequests, "job store full; retry later")
			return
		}
		jsonError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}

	s.jobsSubmitted.Add(1)
	s.jobsActive.Add(1)
	s.jobs.wg.Add(1)
	go s.runJob(j, admitted)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(jobResponse{JobID: j.id, State: JobQueued, SHA256: j.hexSum})
}

// runJob is the background worker of one job: wait for an analysis
// slot (unless the submit already owned one), run the file-backed
// analysis of the spooled upload under the same in-flight accounting
// as synchronous requests, and park the result in the shared cache
// where GET /v1/jobs/{id} serves it from. The spool file is removed on
// every exit path, including shutdown-before-run.
func (s *Server) runJob(j *job, admitted bool) {
	defer s.jobs.wg.Done()
	// The terminal state is published last, once the slot, the
	// in-flight count and the active gauge no longer count the job: a
	// poller that sees it finished reads stats that agree.
	state, errMsg, cached := JobFailed, "server shut down before the job ran", false
	defer func() {
		os.Remove(j.spoolPath)
		s.jobsActive.Add(-1)
		s.jobs.finish(j, state, errMsg, cached)
	}()
	if !admitted {
		waitStart := time.Now()
		select {
		case s.adm.slots <- struct{}{}:
			s.adm.queued.Add(-1)
			s.queueWait.observe(time.Since(waitStart))
		case <-s.jobs.closeCh:
			s.adm.queued.Add(-1)
			s.jobsFailed.Add(1)
			return
		}
	}
	defer s.adm.release()

	s.jobs.setRunning(j)
	s.enterFlight()
	defer s.exitFlight()

	t0 := time.Now()
	_, hit, err := s.cache.AnalyzeFile(j.spoolPath, j.opts...)
	s.analyzeDur.observe(time.Since(t0))
	if err != nil {
		s.jobsFailed.Add(1)
		errMsg = err.Error()
		return
	}
	s.jobsCompleted.Add(1)
	state, errMsg, cached = JobDone, "", hit
}

// handleJobGet serves GET /v1/jobs/{id}: the poll half of the async
// API. Unknown and TTL-expired IDs are 404; a done job's result is
// fetched from the cache by the content hash recorded at submit, so
// the bytes are exactly what the synchronous endpoint would serve.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	j, ok := s.jobs.get(id)
	if !ok {
		jsonError(w, http.StatusNotFound, "no job %q (unknown or expired)", id)
		return
	}
	snap := s.jobs.snapshot(j)
	resp := jobResponse{JobID: snap.id, State: snap.state, SHA256: snap.hexSum}
	switch snap.state {
	case JobFailed:
		resp.Error = snap.errMsg
	case JobDone:
		resp.Cached = snap.cached
		res, ok := s.cache.Get(snap.sum, snap.opts...)
		if !ok {
			// The TTL outlived the cache entry (eviction); the job is
			// still done, the caller just has to re-analyze for bytes.
			resp.Error = "result evicted from cache; re-submit to recompute"
			break
		}
		blob, err := fetch.EncodeResult(res)
		if err != nil {
			jsonError(w, http.StatusInternalServerError, "encoding result: %v", err)
			return
		}
		resp.Result = blob
	}
	writeJSON(w, resp)
}
