package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fetch"
	"fetch/internal/service"
)

func TestRunRejectsBadFlagsAndArgs(t *testing.T) {
	var errW bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &errW, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"positional"}, &errW, nil); err == nil ||
		!strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("positional args: %v", err)
	}
	if err := run([]string{"-log-format", "xml"}, &errW, nil); err == nil ||
		!strings.Contains(err.Error(), "log-format") {
		t.Fatalf("bad -log-format: %v", err)
	}
}

// TestStartupLogPrintsResolvedConfig pins the startup-log bugfix: the
// banner must report the configuration the server actually runs with —
// -jobs 0 resolved to one slot per CPU — and name the queue and upload
// bounds, not echo raw flag values.
func TestStartupLogPrintsResolvedConfig(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan error, 1)
	var errW syncBuffer
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-jobs", "0",
			"-max-queued", "7", "-queue-timeout", "3s", "-log-format", "none",
		}, &errW, ready)
	}()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v\n%s", err, errW.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain after SIGINT")
	}

	banner := errW.String()
	for _, want := range []string{
		fmt.Sprintf("jobs=%d", runtime.GOMAXPROCS(0)), // resolved, not the raw 0
		"max-queued=7",
		"queue-timeout=3s",
		fmt.Sprintf("max-upload=%d", service.DefaultMaxUploadBytes),
		"log-format=none",
	} {
		if !strings.Contains(banner, want) {
			t.Errorf("startup log missing %q:\n%s", want, banner)
		}
	}
	if strings.Contains(banner, "jobs=0") {
		t.Errorf("startup log echoes the raw -jobs flag instead of the resolved value:\n%s", banner)
	}
}

// TestAccessLogJSON serves one request with -log-format json and
// checks a structured access-log line reaches the error stream.
func TestAccessLogJSON(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan error, 1)
	var errW syncBuffer
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-jobs", "1", "-log-format", "json"}, &errW, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited before ready: %v\n%s", err, errW.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain after SIGINT")
	}

	var logged bool
	for _, line := range strings.Split(errW.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("non-JSON access log line %q: %v", line, err)
		}
		if entry["path"] == "/v1/healthz" && entry["status"] == float64(200) {
			logged = true
		}
	}
	if !logged {
		t.Fatalf("no JSON access-log record for /v1/healthz:\n%s", errW.String())
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer: run's handler
// goroutines write access logs concurrently with the test's reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

// Write appends under the lock.
func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

// String snapshots the buffer under the lock.
func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestRunRejectsUnusableCacheDir(t *testing.T) {
	file := t.TempDir() + "/occupied"
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var errW bytes.Buffer
	if err := run([]string{"-cache-dir", file + "/sub"}, &errW, nil); err == nil {
		t.Fatal("cache dir under a regular file accepted")
	}
}

// TestServeAnalyzeShutdown exercises the full daemon lifecycle: bind
// an ephemeral port, serve a real analysis over TCP, then deliver
// SIGINT and require a clean drained exit.
func TestServeAnalyzeShutdown(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan error, 1)
	var errW bytes.Buffer
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-jobs", "2"}, &errW, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited before ready: %v\n%s", err, errW.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	bin, _, err := fetch.GenerateSample(fetch.SampleConfig{Seed: 7, NumFuncs: 40, Stripped: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/analyze", "application/octet-stream", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", resp.StatusCode, raw)
	}
	var ar struct {
		SHA256 string          `json:"sha256"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatalf("analyze response: %v", err)
	}
	if _, err := fetch.DecodeResult(ar.Result); err != nil {
		t.Fatalf("served result does not decode: %v", err)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain after SIGINT")
	}
}
