// Command bundleworker is the stripe-span worker daemon of the distributed
// bundle-pricing cluster. A bundled coordinator (started with -workers)
// feeds it contiguous stripe spans of uploaded corpora and then drives the
// scatter/gather evaluate traffic: per-span bundle vectors and pricing
// aggregates (see internal/cluster for the protocol).
//
// Usage:
//
//	bundleworker -addr :9101
//
// Then:
//
//	curl localhost:9101/healthz     # assigned spans + corpus versions
//	curl localhost:9101/metrics     # Prometheus text metrics
//
// Workers are stateless beyond their assigned spans: every request carries
// the corpus snapshot version, and a worker that restarts (or lags a corpus
// re-upload) is simply re-fed by the coordinator on its next request. The
// daemon shuts down gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bundling/internal/cluster"
	"bundling/internal/obs"
)

// options collects the daemon's flag values.
type options struct {
	addr         string
	maxSpans     int
	drainSecs    int
	logFormat    string
	logLevel     string
	traceRing    int
	pprof        bool
	usageMetrics bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":9101", "listen address")
	flag.IntVar(&o.maxSpans, "max-spans", 64, "max assigned spans (LRU eviction beyond)")
	flag.IntVar(&o.drainSecs, "drain-seconds", 15, "graceful shutdown drain window")
	flag.StringVar(&o.logFormat, "log-format", "text", "structured log output format: text or json")
	flag.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	flag.IntVar(&o.traceRing, "trace-ring", 0, "recent RPC trace records kept for /debug/traces (0 = 128, negative disables)")
	flag.BoolVar(&o.pprof, "pprof", false, "serve net/http/pprof profiles under /debug/pprof")
	flag.BoolVar(&o.usageMetrics, "usage-metrics", false, "label the per-span request gauges on the open /metrics endpoint with corpus keys (corpus IDs are tenant data; keep off unless the scrape endpoint is private)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bundleworker:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	logger, err := obs.NewLogger(os.Stderr, o.logFormat, o.logLevel)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	wk := cluster.NewWorker(cluster.WorkerConfig{
		MaxSpans:     o.maxSpans,
		TraceRing:    o.traceRing,
		Pprof:        o.pprof,
		UsageMetrics: o.usageMetrics,
	})
	hs := &http.Server{
		Addr:              o.addr,
		Handler:           wk.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("bundleworker listening", "addr", o.addr, "pprof", o.pprof)
		errCh <- hs.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down", "drain_seconds", o.drainSecs)
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Duration(o.drainSecs)*time.Second)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("bundleworker stopped")
	return nil
}
