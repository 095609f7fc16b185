package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fetch"
)

// sampleELF generates a deterministic in-memory sample binary.
func sampleELF(t testing.TB, seed int64) []byte {
	t.Helper()
	raw, _, err := fetch.GenerateSample(fetch.SampleConfig{Seed: seed, NumFuncs: 40, Stripped: true})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// newTestServer builds a Server plus its httptest front end.
func newTestServer(t *testing.T, maxInFlight int) (*Server, *httptest.Server) {
	t.Helper()
	cache, err := fetch.NewCache(fetch.CacheConfig{MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{Cache: cache, MaxInFlight: maxInFlight})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	return svc, ts
}

// postBinary uploads raw ELF bytes to /v1/analyze.
func postBinary(t *testing.T, ts *httptest.Server, path string, body []byte) (int, analyzeResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ar analyzeResponse
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ar); err != nil {
			t.Fatalf("bad analyze response %s: %v", raw, err)
		}
	}
	return resp.StatusCode, ar
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, 2)
	var st map[string]string
	if code := getJSON(t, ts.URL+"/v1/healthz", &st); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if st["status"] != "ok" {
		t.Fatalf("healthz: %v", st)
	}
}

func TestAnalyzeUploadThenCachedPaths(t *testing.T) {
	svc, ts := newTestServer(t, 2)
	bin := sampleELF(t, 71)
	sum := fetch.HashBinary(bin)
	hexSum := hex.EncodeToString(sum[:])

	// First upload: a cold analysis.
	code, ar := postBinary(t, ts, "/v1/analyze", bin)
	if code != http.StatusOK {
		t.Fatalf("analyze: status %d", code)
	}
	if ar.Cached {
		t.Fatal("first analysis reported cached")
	}
	if ar.SHA256 != hexSum {
		t.Fatalf("sha256 %s, want %s", ar.SHA256, hexSum)
	}
	res, err := fetch.DecodeResult(ar.Result)
	if err != nil {
		t.Fatalf("embedded result does not decode: %v", err)
	}
	if len(res.FunctionStarts) == 0 {
		t.Fatal("no function starts in served result")
	}

	// Second upload of the same bytes: served from cache, identical
	// result payload.
	code, ar2 := postBinary(t, ts, "/v1/analyze", bin)
	if code != http.StatusOK || !ar2.Cached {
		t.Fatalf("re-analyze: status %d cached %v", code, ar2.Cached)
	}
	if !bytes.Equal(ar.Result, ar2.Result) {
		t.Fatal("cached result payload differs from cold payload")
	}

	// By-hash POST form.
	body, _ := json.Marshal(map[string]string{"sha256": hexSum})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("by-hash analyze: status %d", resp.StatusCode)
	}

	// GET /v1/result/{sha256}.
	var got analyzeResponse
	if code := getJSON(t, ts.URL+"/v1/result/"+hexSum, &got); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if !bytes.Equal(got.Result, ar.Result) {
		t.Fatal("GET result payload differs from analyze payload")
	}

	st := svc.Stats()
	if st.Analyze.Requests != 2 || st.Analyze.CacheHits != 1 || st.Analyze.CacheMisses != 1 {
		t.Fatalf("analyze counters: %+v", st.Analyze)
	}
	if st.Result.Requests != 1 || st.Result.Hits != 1 {
		t.Fatalf("result counters: %+v", st.Result)
	}
	if st.Analyze.ByHash != 1 || st.Analyze.ByHashHits != 1 {
		t.Fatalf("by-hash counters: %+v", st.Analyze)
	}
}

// TestResponsesAreCompact pins the wire form of every result-bearing
// body: /v1/analyze, /v1/result and a finished job are compact JSON —
// no newline or indentation inside the document — and the embedded
// result decodes to the same Result a library analysis produces.
func TestResponsesAreCompact(t *testing.T) {
	_, ts := newTestServer(t, 2)
	bin := sampleELF(t, 73)
	sum := fetch.HashBinary(bin)
	hexSum := hex.EncodeToString(sum[:])
	want, err := fetch.Analyze(bin)
	if err != nil {
		t.Fatal(err)
	}
	wantEnc, err := fetch.EncodeResult(fetch.StripSchedule(want))
	if err != nil {
		t.Fatal(err)
	}

	body := func(method, path string, payload []byte) []byte {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s %s: status %d: %s", method, path, resp.StatusCode, raw)
		}
		doc, ok := bytes.CutSuffix(raw, []byte("\n"))
		if !ok || bytes.Contains(doc, []byte("\n")) {
			t.Fatalf("%s %s: body is not one compact line:\n%s", method, path, raw)
		}
		return raw
	}
	requireResult := func(path string, raw []byte) {
		t.Helper()
		var env struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatal(err)
		}
		res, err := fetch.DecodeResult(env.Result)
		if err != nil {
			t.Fatalf("%s: compact result does not decode: %v", path, err)
		}
		enc, err := fetch.EncodeResult(fetch.StripSchedule(res))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, wantEnc) {
			t.Fatalf("%s: served result differs from a library analysis", path)
		}
	}

	requireResult("/v1/analyze", body("POST", "/v1/analyze", bin))
	requireResult("/v1/result", body("GET", "/v1/result/"+hexSum, nil))
	var jr jobResponse
	if err := json.Unmarshal(body("POST", "/v1/jobs", bin), &jr); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts, jr.JobID, 10*time.Second)
	requireResult("/v1/jobs", body("GET", "/v1/jobs/"+jr.JobID, nil))
}

func TestResultMissAndBadHash(t *testing.T) {
	_, ts := newTestServer(t, 2)
	unknown := strings.Repeat("ab", 32)
	if code := getJSON(t, ts.URL+"/v1/result/"+unknown, nil); code != http.StatusNotFound {
		t.Fatalf("unknown hash: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/result/nothex", nil); code != http.StatusBadRequest {
		t.Fatalf("bad hash: status %d, want 400", code)
	}
	body, _ := json.Marshal(map[string]string{"sha256": unknown})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("by-hash miss: status %d, want 404", resp.StatusCode)
	}
}

func TestStrategyParamsKeySeparateEntries(t *testing.T) {
	_, ts := newTestServer(t, 2)
	bin := sampleELF(t, 72)
	sum := fetch.HashBinary(bin)
	hexSum := hex.EncodeToString(sum[:])

	code, full := postBinary(t, ts, "/v1/analyze", bin)
	if code != http.StatusOK {
		t.Fatalf("analyze: status %d", code)
	}
	code, fde := postBinary(t, ts, "/v1/analyze?fde_only=1", bin)
	if code != http.StatusOK || fde.Cached {
		t.Fatalf("fde-only analyze: status %d cached %v (want distinct cold entry)", code, fde.Cached)
	}
	fullRes, err := fetch.DecodeResult(full.Result)
	if err != nil {
		t.Fatal(err)
	}
	fdeRes, err := fetch.DecodeResult(fde.Result)
	if err != nil {
		t.Fatal(err)
	}
	if len(fdeRes.Stats.Passes) != 1 || fdeRes.Stats.Passes[0].Name != "fde" {
		t.Fatalf("fde-only ran passes %v, want just fde", fdeRes.Stats.Passes)
	}
	if len(fullRes.Stats.Passes) < 3 {
		t.Fatalf("full FETCH ran only %v", fullRes.Stats.Passes)
	}
	// The variant is part of the key on reads too.
	var got analyzeResponse
	if code := getJSON(t, ts.URL+"/v1/result/"+hexSum+"?fde_only=1", &got); code != http.StatusOK {
		t.Fatalf("fde-only result: status %d", code)
	}
	if !bytes.Equal(got.Result, fde.Result) {
		t.Fatal("fde-only result does not round-trip through its own cache entry")
	}
}

func TestAnalyzeRejectsEmptyAndHugeBodies(t *testing.T) {
	cache, err := fetch.NewCache(fetch.CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{Cache: cache, MaxInFlight: 1, MaxUploadBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	code, _ := postBinary(t, ts, "/v1/analyze", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("empty body: status %d, want 400", code)
	}
	code, _ = postBinary(t, ts, "/v1/analyze", bytes.Repeat([]byte{0x90}, 4096))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("huge body: status %d, want 413", code)
	}
	code, _ = postBinary(t, ts, "/v1/analyze", []byte("not an elf"))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("garbage body: status %d, want 422", code)
	}
	if st := svc.Stats(); st.Analyze.Errors != 3 {
		t.Fatalf("error counter: %+v", st.Analyze)
	}
}

func TestMethodDiscipline(t *testing.T) {
	_, ts := newTestServer(t, 1)
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET analyze: status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/result/"+strings.Repeat("00", 32), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST result: status %d", resp.StatusCode)
	}
	// healthz, stats, metrics, and the jobs endpoints are
	// method-disciplined too (healthz/stats historically accepted
	// anything).
	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/v1/healthz"},
		{http.MethodDelete, "/v1/stats"},
		{http.MethodPost, "/metrics"},
		{http.MethodGet, "/v1/jobs"},
		{http.MethodPost, "/v1/jobs/someid"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestBoundedInFlight drives many concurrent distinct uploads through
// a MaxInFlight=1 server and asserts the high-water mark of concurrent
// analyses never exceeded the bound. The queue holds every upload, so
// none is refused: with a shorter queue, a 429 would be correct
// admission behaviour, not a violation of the bound.
func TestBoundedInFlight(t *testing.T) {
	const n = 6
	svc := newAdmissionServer(t, Config{MaxInFlight: 1, MaxQueued: n})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			bin := sampleELF(t, int64(100+i))
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/octet-stream", bytes.NewReader(bin))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := svc.Stats()
	if st.PeakInFlight > 1 {
		t.Fatalf("peak in-flight %d exceeded bound 1", st.PeakInFlight)
	}
	if st.Analyze.Requests != n || st.Analyze.CacheMisses != n {
		t.Fatalf("counters after distinct uploads: %+v", st.Analyze)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight gauge stuck at %d", st.InFlight)
	}
}

// TestQueuedRequestHonorsClientCancel fills the only analysis slot
// directly, then drives a request whose context is cancelled while it
// waits in the admission queue (how an HTTP/2 reset, a fronting
// proxy's deadline, or http.TimeoutHandler surfaces a client abort):
// it must come back 503 without ever acquiring the slot, and must be
// counted as a queue cancellation — NOT a server error.
func TestQueuedRequestHonorsClientCancel(t *testing.T) {
	svc, _ := newTestServer(t, 1)
	svc.adm.slots <- struct{}{} // occupy the only slot
	defer func() { <-svc.adm.slots }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze",
		bytes.NewReader(sampleELF(t, 140))).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		svc.Handler().ServeHTTP(rec, req)
		close(done)
	}()
	// Wait until the request is actually queued, then abandon it.
	deadline := time.Now().Add(2 * time.Second)
	for svc.Stats().Queued == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if svc.Stats().Queued != 1 {
		t.Fatal("request never reached the admission queue")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("handler did not return after context cancel")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled-while-queued status %d, want 503", rec.Code)
	}
	st := svc.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in-flight gauge %d after cancelled request", st.InFlight)
	}
	if st.Queued != 0 {
		t.Fatalf("queued gauge %d after cancelled request", st.Queued)
	}
	if st.Analyze.QueueCancelled != 1 {
		t.Fatalf("queue_cancelled %d, want 1", st.Analyze.QueueCancelled)
	}
	if st.Analyze.Errors != 0 {
		t.Fatalf("a queued client abort was counted as a server error: %+v", st.Analyze)
	}
}

// TestNoGoroutineLeaks runs a realistic request mix, closes the
// server, and checks the goroutine count settles back near the
// baseline: the service itself must not leave anything running.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		svc, ts := newTestServer(t, 2)
		bin := sampleELF(t, 150)
		for i := 0; i < 3; i++ {
			postBinary(t, ts, "/v1/analyze", bin)
		}
		getJSON(t, ts.URL+"/v1/stats", &StatsResponse{})
		_ = svc
		ts.Close()
	}()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after shutdown", before, runtime.NumGoroutine())
}

// TestStatsEndpointShape decodes /v1/stats into the typed response and
// sanity-checks invariants the docs promise.
func TestStatsEndpointShape(t *testing.T) {
	_, ts := newTestServer(t, 3)
	bin := sampleELF(t, 160)
	postBinary(t, ts, "/v1/analyze", bin)
	postBinary(t, ts, "/v1/analyze", bin)

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.MaxInFlight != 3 {
		t.Fatalf("max_in_flight %d", st.MaxInFlight)
	}
	if st.UptimeNS <= 0 {
		t.Fatal("uptime not positive")
	}
	if st.Analyze.Requests != 2 || st.Analyze.CacheHits != 1 {
		t.Fatalf("analyze counters: %+v", st.Analyze)
	}
	// Raw store counters include delta-tier traffic (the recorded cold
	// run writes a manifest plus the function ranges); subtract it to
	// recover the result-tier traffic the two requests generated.
	if st.Cache.Puts-st.Cache.DeltaPuts != 1 ||
		st.Cache.Hits-st.Cache.ManifestHits-st.Cache.FnTierHits != 1 {
		t.Fatalf("cache counters: %+v", st.Cache)
	}
	if st.Analyze.AnalyzeNS <= 0 {
		t.Fatal("analyze latency counter not positive")
	}
}
