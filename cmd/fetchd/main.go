// Command fetchd is the long-running FETCH analysis service: an HTTP
// front end over the pipeline that content-addresses every analyzed
// binary, so byte-identical binaries are analyzed once and served from
// the result cache afterwards.
//
// Usage:
//
//	fetchd [-addr :8421] [-jobs N] [-max-queued N] [-queue-timeout D]
//	       [-cache-entries N] [-cache-dir DIR] [-cache-max-bytes N]
//	       [-max-upload BYTES] [-spool-dir DIR] [-log-format text|json|none]
//
// Endpoints (documented with examples in docs/API.md):
//
//	POST /v1/analyze         upload a binary (raw bytes) or look one
//	                         up by {"sha256": "..."} JSON body
//	POST /v1/jobs            submit a binary for asynchronous analysis
//	GET  /v1/jobs/{id}       poll an async job until done/failed
//	GET  /v1/result/{sha256} cached result by content hash
//	GET  /v1/healthz         liveness probe
//	GET  /v1/stats           cache hit/miss/latency counters
//	GET  /metrics            Prometheus text-format metrics
//
// At most -jobs analyses run concurrently; up to -max-queued more wait
// for at most -queue-timeout before the server answers 503. Arrivals
// beyond both bounds are rejected immediately with 429 and a
// Retry-After hint. -cache-dir persists results across restarts.
// Uploads stream to temp files under -spool-dir (system temp dir by
// default) and are analyzed file-backed, so accepting a large binary
// never buffers it on the heap. -log-format selects the structured
// access-log encoding on stderr. On SIGINT/SIGTERM the server stops
// accepting connections and drains in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"fetch"
	"fetch/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "fetchd:", err)
		os.Exit(1)
	}
}

// syncWriter serializes writes: the startup line, the access logger,
// and handler goroutines all share the same error stream.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// Write forwards under the lock.
func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// newLogger builds the access logger for -log-format, or nil for
// "none" (access logging disabled).
func newLogger(format string, w io.Writer) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	case "none":
		return nil, nil
	default:
		return nil, fmt.Errorf("invalid -log-format %q (want text, json, or none)", format)
	}
}

// run builds and serves the service until the process receives
// SIGINT/SIGTERM or ready's consumer closes the listener. The ready
// channel, when non-nil, receives the bound address once the server
// is listening — tests use it to drive a real TCP server without
// races on startup.
func run(args []string, errW io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("fetchd", flag.ContinueOnError)
	fs.SetOutput(errW)
	addr := fs.String("addr", ":8421", "listen address")
	jobs := fs.Int("jobs", 0, "max concurrent analyses (0 = one per CPU)")
	maxQueued := fs.Int("max-queued", 0, "max requests waiting for an analysis slot (0 = 4×jobs, negative = no queue)")
	queueTimeout := fs.Duration("queue-timeout", 0, "max time a request may wait for a slot (0 = default)")
	cacheEntries := fs.Int("cache-entries", 4096, "in-memory result cache capacity")
	cacheDir := fs.String("cache-dir", "", "persistent result cache directory (empty = memory only)")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "disk cache byte budget, oldest entries evicted first (0 = unbounded)")
	maxUpload := fs.Int64("max-upload", service.DefaultMaxUploadBytes, "max accepted binary size in bytes")
	spoolDir := fs.String("spool-dir", "", "upload spool directory (empty = system temp dir)")
	logFormat := fs.String("log-format", "text", "access log encoding: text, json, or none")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	out := &syncWriter{w: errW}
	logger, err := newLogger(*logFormat, out)
	if err != nil {
		return err
	}

	cache, err := fetch.NewCache(fetch.CacheConfig{
		MaxEntries:   *cacheEntries,
		Dir:          *cacheDir,
		MaxDiskBytes: *cacheMaxBytes,
	})
	if err != nil {
		return err
	}
	svc, err := service.New(service.Config{
		Cache:          cache,
		MaxInFlight:    *jobs,
		MaxQueued:      *maxQueued,
		QueueTimeout:   *queueTimeout,
		MaxUploadBytes: *maxUpload,
		SpoolDir:       *spoolDir,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	// ReadTimeout bounds slow uploads, WriteTimeout covers the worst
	// admitted case (queue wait + analysis), IdleTimeout reaps
	// keep-alive connections.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	// Log the RESOLVED configuration — what the server actually runs
	// with — not the raw flag values (jobs=0 resolves to one per CPU).
	fmt.Fprintf(out, "fetchd: listening on %s (jobs=%d, max-queued=%d, queue-timeout=%s, max-upload=%d, spool-dir=%q, cache=%d entries, dir=%q, log-format=%s)\n",
		ln.Addr(), svc.MaxInFlight(), svc.MaxQueued(),
		svc.QueueTimeout(), svc.MaxUploadBytes(), svc.SpoolDir(), *cacheEntries, *cacheDir, *logFormat)

	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		// Graceful drain: stop accepting, finish in-flight requests,
		// give up after a deadline. svc.Close (deferred) then fails
		// any async jobs still waiting for a slot.
		shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		<-errc // reap the Serve goroutine's ErrServerClosed
		return nil
	}
}
