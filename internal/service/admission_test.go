package service

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"fetch"
)

// newAdmissionServer builds a Server with explicit admission knobs and
// no HTTP front end — these tests drive the handler directly so status
// codes and counters can be asserted without transport noise.
func newAdmissionServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Cache == nil {
		cache, err := fetch.NewCache(fetch.CacheConfig{MaxEntries: 64})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = cache
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// TestResolvedConfigDefaults pins what New resolves zero Config fields
// to — the values the fetchd startup log must print instead of the
// raw flags.
func TestResolvedConfigDefaults(t *testing.T) {
	svc := newAdmissionServer(t, Config{})
	if got, want := svc.MaxInFlight(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("MaxInFlight() = %d, want %d (one per CPU)", got, want)
	}
	if got, want := svc.MaxQueued(), DefaultMaxQueuedPerSlot*svc.MaxInFlight(); got != want {
		t.Fatalf("MaxQueued() = %d, want %d", got, want)
	}
	if got := svc.QueueTimeout(); got != DefaultQueueTimeout {
		t.Fatalf("QueueTimeout() = %v, want %v", got, DefaultQueueTimeout)
	}
	if got := svc.MaxUploadBytes(); got != int64(DefaultMaxUploadBytes) {
		t.Fatalf("MaxUploadBytes() = %d, want %d", got, DefaultMaxUploadBytes)
	}
}

// TestOversizeUploadIs413 is the regression test for the 413 bugfix:
// only a body that actually exceeds the limit — detected via
// *http.MaxBytesError — may be 413.
func TestOversizeUploadIs413(t *testing.T) {
	svc := newAdmissionServer(t, Config{MaxInFlight: 1, MaxUploadBytes: 1024})
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze",
		bytes.NewReader(make([]byte, 4096)))
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize upload: status %d, want 413", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "1024-byte upload limit") {
		t.Fatalf("413 body does not name the limit: %s", rec.Body.String())
	}
	if st := svc.Stats(); st.Analyze.Errors != 1 {
		t.Fatalf("errors %d, want 1", st.Analyze.Errors)
	}
}

// failingBody errors partway through the body — what the server sees
// when a client disconnects mid-upload.
type failingBody struct {
	data io.Reader
	err  error
}

// Read serves the prefix then fails with the wrapped error.
func (f *failingBody) Read(p []byte) (int, error) {
	n, err := f.data.Read(p)
	if err == io.EOF {
		return n, f.err
	}
	return n, err
}

// TestClientAbortMidUploadIs400 is the regression test for the other
// half of the bugfix: a transport/client read failure that is NOT a
// MaxBytesError must be 400, never 413 (the old code reported every
// read error as "body too large").
func TestClientAbortMidUploadIs400(t *testing.T) {
	svc := newAdmissionServer(t, Config{MaxInFlight: 1, MaxUploadBytes: 1 << 20})
	body := &failingBody{
		data: bytes.NewReader(make([]byte, 100)),
		err:  errors.New("connection reset by peer"),
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze", body)
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("mid-upload abort: status %d, want 400", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "upload limit") {
		t.Fatalf("client abort mislabeled as oversize: %s", rec.Body.String())
	}
	if st := svc.Stats(); st.Analyze.Errors != 1 {
		t.Fatalf("errors %d, want 1", st.Analyze.Errors)
	}
}

// occupySlots takes every analysis slot directly; the returned func
// frees them.
func occupySlots(svc *Server) func() {
	n := cap(svc.adm.slots)
	for i := 0; i < n; i++ {
		svc.adm.slots <- struct{}{}
	}
	return func() {
		for i := 0; i < n; i++ {
			<-svc.adm.slots
		}
	}
}

// TestQueueFullImmediate429 saturates MaxInFlight and MaxQueued and
// asserts the next request is rejected 429 with a Retry-After hint
// WITHOUT blocking — the admission contract that keeps overload from
// piling up hung connections.
func TestQueueFullImmediate429(t *testing.T) {
	svc := newAdmissionServer(t, Config{MaxInFlight: 1, MaxQueued: 1, QueueTimeout: 30 * time.Second})
	free := occupySlots(svc)
	defer free()

	// Fill the single queue position with a request that will wait.
	queuedBin := sampleELF(t, 200)
	queuedDone := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze",
			bytes.NewReader(queuedBin))
		svc.Handler().ServeHTTP(rec, req)
		queuedDone <- rec.Code
	}()
	deadline := time.Now().Add(2 * time.Second)
	for svc.Stats().Queued == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if svc.Stats().Queued != 1 {
		t.Fatal("first request never queued")
	}

	// Queue full: the next arrival must bounce immediately.
	start := time.Now()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze",
		bytes.NewReader(sampleELF(t, 201)))
	svc.Handler().ServeHTTP(rec, req)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("429 took %v; admission rejection must not block", elapsed)
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full status %d, want 429", rec.Code)
	}
	ra := rec.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if sec, err := strconv.Atoi(ra); err != nil || sec < 1 {
		t.Fatalf("Retry-After %q is not a positive integer of seconds", ra)
	}
	if st := svc.Stats(); st.Analyze.QueueRejected != 1 {
		t.Fatalf("queue_rejected %d, want 1", st.Analyze.QueueRejected)
	}

	// Freeing the slot lets the queued request run to completion.
	free()
	select {
	case code := <-queuedDone:
		if code != http.StatusOK {
			t.Fatalf("queued request finished with status %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request never completed after the slot freed")
	}
	// Re-occupy so the deferred free has slots to drain.
	svc.adm.slots <- struct{}{}
}

// TestQueueDeadlineExpiry503 holds the only slot past a short queue
// deadline and asserts the queued request gets 503 with its wait
// recorded in the queue-wait histogram.
func TestQueueDeadlineExpiry503(t *testing.T) {
	svc := newAdmissionServer(t, Config{MaxInFlight: 1, MaxQueued: 4, QueueTimeout: 50 * time.Millisecond})
	free := occupySlots(svc)
	defer free()

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze",
		bytes.NewReader(sampleELF(t, 202)))
	start := time.Now()
	svc.Handler().ServeHTTP(rec, req)
	elapsed := time.Since(start)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queue-deadline status %d, want 503", rec.Code)
	}
	if elapsed < 50*time.Millisecond {
		t.Fatalf("503 after %v, before the 50ms deadline could have expired", elapsed)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("queue-deadline 503 without Retry-After")
	}
	st := svc.Stats()
	if st.Analyze.QueueTimeouts != 1 {
		t.Fatalf("queue_timeouts %d, want 1", st.Analyze.QueueTimeouts)
	}
	if st.Analyze.QueueWaitNS < int64(50*time.Millisecond) {
		t.Fatalf("queue wait %dns not recorded for the timed-out request", st.Analyze.QueueWaitNS)
	}
	if st.Analyze.Errors != 0 {
		t.Fatalf("queue timeout counted as analyze error: %+v", st.Analyze)
	}
}

// TestNegativeMaxQueuedDisablesQueueing pins the MaxQueued<0 contract:
// a busy server answers 429 immediately, nothing ever waits.
func TestNegativeMaxQueuedDisablesQueueing(t *testing.T) {
	svc := newAdmissionServer(t, Config{MaxInFlight: 1, MaxQueued: -1})
	if got := svc.MaxQueued(); got != 0 {
		t.Fatalf("MaxQueued() = %d, want 0 for disabled queueing", got)
	}
	free := occupySlots(svc)
	defer free()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze",
		bytes.NewReader(sampleELF(t, 203)))
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want immediate 429", rec.Code)
	}
}

// TestByHashOversizeBodyIs413 pins the by-hash lookup bugfix: a JSON
// body past the 4096-byte bound is 413, not a silently-truncated
// "bad JSON" 400.
func TestByHashOversizeBodyIs413(t *testing.T) {
	svc := newAdmissionServer(t, Config{MaxInFlight: 1})
	huge := []byte(`{"sha256": "` + strings.Repeat("a", 8192) + `"}`)
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(huge))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize JSON lookup: status %d, want 413", rec.Code)
	}
	// A small malformed body remains a plain 400.
	req = httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader("{nope"))
	req.Header.Set("Content-Type", "application/json")
	rec = httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON lookup: status %d, want 400", rec.Code)
	}
}
