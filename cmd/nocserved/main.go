// Command nocserved serves the mapping methodology over HTTP/JSON: a
// long-lived daemon with a bounded worker pool, canonical-digest result
// caching, and single-flight deduplication of identical requests, embedded
// from the public SDK (noc.NewServer).
//
// Usage:
//
//	nocserved [-addr :8080] [-workers 8] [-queue 64] [-cache 128]
//	          [-store memory|disk] [-store-dir DIR]
//	          [-timeout 1m] [-log-format text|json] [-log-level info]
//	          [-pprof]
//
// -timeout is the job deadline of a request without timeout_ms; an answer
// a deadline cut short is served as "truncated" and never stored.
//
// The result store defaults to an in-memory LRU. -store disk (with
// -store-dir) makes cached results durable across restarts. The store
// flags also read the NOC_STORE and NOC_STORE_DIR environment variables;
// explicit flags win over the environment, which wins over the defaults.
//
// Endpoints (versioned surface, see docs/cli.md for schemas):
//
//	POST /v1/map       map one design (async with {"async":true},
//	                   serve-then-improve with {"mode":"stream"})
//	GET  /v1/jobs/{id} poll an async job
//	GET  /v1/jobs/{id}/events  anytime-results stream (SSE; resume with ?after)
//	GET  /v1/designs/{digest}  cached result for a request digest (404 if absent)
//	GET  /v1/stats     cache, store and pool gauges
//	GET  /v1/metrics   Prometheus text exposition
//	GET  /v1/version   build identity
//	GET  /healthz      liveness + version + uptime
//
// With -pprof the net/http/pprof profiling handlers are mounted under
// /debug/pprof/ on the same listener; leave it off in untrusted networks.
//
// The request body
// of /v1/map embeds a design in the standard interchange format under
// "design"; see docs/cli.md for a full curl session.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nocmap/pkg/noc"
)

// buildLogger constructs the daemon's structured logger from the -log-format
// and -log-level flags. Unknown values fall back to text/info rather than
// failing startup — a misspelled level should not take the service down.
func buildLogger(w io.Writer, format, level string) *slog.Logger {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		lvl = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lvl}
	if format == "json" {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// envOr reads an environment variable, falling back to def when unset. It
// supplies flag defaults, so explicit flags override the environment which
// overrides the built-in default — the documented precedence.
func envOr(key, def string) string {
	if v, ok := os.LookupEnv(key); ok {
		return v
	}
	return def
}

// withPprof mounts the net/http/pprof handlers under /debug/pprof/ alongside
// the service surface. Registration is explicit (not the package's implicit
// http.DefaultServeMux side effect) so profiling is opt-in per listener.
func withPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "engine-run workers (0 = one per CPU)")
	queue := flag.Int("queue", 64, "bounded job-queue depth (backpressure beyond this)")
	cacheEntries := flag.Int("cache", 128, "result-cache entries (LRU)")
	storeBackend := flag.String("store", envOr("NOC_STORE", "memory"),
		"result-store backend: memory or disk (env NOC_STORE)")
	storeDir := flag.String("store-dir", envOr("NOC_STORE_DIR", ""),
		"disk-store root directory (env NOC_STORE_DIR)")
	timeout := flag.Duration("timeout", time.Minute, "default per-job deadline (0 = none)")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	logger := buildLogger(os.Stderr, *logFormat, *logLevel)
	resultStore, err := noc.OpenStore(noc.StoreConfig{
		Backend:      *storeBackend,
		Dir:          *storeDir,
		CacheEntries: *cacheEntries,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocserved:", err)
		os.Exit(2)
	}
	logger.Info("result store ready", "backend", resultStore.Backend(), "dir", *storeDir)
	server := noc.NewServer(noc.ServerConfig{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheEntries,
		DefaultTimeout: *timeout,
		Store:          resultStore,
		Logger:         logger,
	})
	handler := server.Handler()
	if *pprofOn {
		handler = withPprof(handler)
	}
	srv := &http.Server{Addr: *addr, Handler: handler}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // best-effort drain before Close
	}()

	logger.Info("listening", "addr", *addr, "version", fmt.Sprint(noc.Version()), "pprof", *pprofOn)
	fmt.Printf("nocserved %s: listening on %s (API /v1)\n", noc.Version(), *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "nocserved:", err)
		os.Exit(1)
	}
	<-done
	server.Close()
}
