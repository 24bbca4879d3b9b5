// Command bundled is the bundle-pricing daemon: it serves long-lived
// Solver sessions over HTTP so many users can upload willingness-to-pay
// corpora and hit them concurrently with solve and what-if evaluate
// requests, with a result cache and admission control in front of the
// engine (see internal/server for the API). With -data-dir every uploaded
// corpus is persisted and restored on restart, and with -auth-keys (or
// -auth-file) the daemon serves multiple tenants with API-key auth,
// per-tenant corpus ownership and quotas.
//
// Usage:
//
//	bundled -addr :8080
//	bundled -addr :8080 -demo        # preload a synthetic corpus as "demo"
//	bundled -addr :8080 -data-dir /var/lib/bundled
//	                                 # durable: corpora survive restarts
//	bundled -addr :8080 -auth-keys alice=sk-a1,bob=sk-b1 -quota-rps 50
//	                                 # multi-tenant: keys, ownership, quotas
//	bundled -addr :8080 -workers 127.0.0.1:9101,127.0.0.1:9102
//	                                 # scale out: solve over bundleworker daemons
//	bundled -addr :8080 -log-format json -pprof -slow-request 2s
//	                                 # observability: JSON logs, /debug/pprof,
//	                                 # span-tree dumps for slow requests
//
// Then:
//
//	curl localhost:8080/healthz
//	curl -X POST localhost:8080/v1/corpora/demo/solve -d '{"algorithm":"matching"}'
//
// See docs/OPERATIONS.md for every flag, the persistence layout and the
// metrics catalogue. The daemon shuts down gracefully on SIGINT/SIGTERM,
// draining in-flight requests and flushing the corpus store before exiting.
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

	"bundling"
	"bundling/internal/cluster"
	"bundling/internal/obs"
	"bundling/internal/server"
)

// options collects the daemon's flag values.
type options struct {
	addr         string
	maxSessions  int
	cacheEntries int
	maxUploadMB  int64
	workers      string
	dataDir      string
	authKeys     string
	authFile     string
	quotaCorpora int
	quotaEntries int
	quotaRPS     float64
	quotaBurst   int
	demo         bool
	demoUsers    int
	demoItems    int
	drainSecs    int

	requestTimeout time.Duration
	maxConcurrent  int
	maxQueue       int
	queueTimeout   time.Duration
	rpcTimeout     time.Duration
	breakerCool    time.Duration

	logFormat   string
	logLevel    string
	slowRequest time.Duration
	traceRing   int
	pprof       bool

	usageTopK    int
	usageWindow  time.Duration
	usageMetrics bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.IntVar(&o.maxSessions, "max-sessions", 64, "max resident corpus sessions, LRU-evicted beyond (an evicted persisted corpus stays listed and reloads on use)")
	flag.IntVar(&o.cacheEntries, "cache", 1024, "result cache entries (negative disables)")
	flag.Int64Var(&o.maxUploadMB, "max-upload-mb", 64, "max corpus upload size in MiB")
	flag.StringVar(&o.workers, "workers", "", "comma-separated bundleworker addresses; enables distributed stripe-sharded solving")
	flag.StringVar(&o.dataDir, "data-dir", "", "corpus persistence directory; uploads survive restarts (empty = in-memory only)")
	flag.StringVar(&o.authKeys, "auth-keys", "", "inline tenant=key[,tenant=key...] API keys; enables multi-tenant auth")
	flag.StringVar(&o.authFile, "auth-file", "", "API key file, one tenant=key per line (# comments); enables multi-tenant auth")
	flag.IntVar(&o.quotaCorpora, "quota-corpora", 0, "max live corpora per tenant (0 = unlimited)")
	flag.IntVar(&o.quotaEntries, "quota-entries", 0, "max summed WTP entries per tenant (0 = unlimited)")
	flag.Float64Var(&o.quotaRPS, "quota-rps", 0, "max sustained /v1 requests per second per tenant (0 = unlimited)")
	flag.IntVar(&o.quotaBurst, "quota-burst", 0, "request-rate burst depth (0 = ceil of -quota-rps)")
	flag.BoolVar(&o.demo, "demo", false, `preload a synthetic corpus as session "demo"`)
	flag.IntVar(&o.demoUsers, "demo-users", 300, "demo corpus users")
	flag.IntVar(&o.demoItems, "demo-items", 60, "demo corpus items")
	flag.IntVar(&o.drainSecs, "drain-seconds", 15, "graceful shutdown drain window")
	flag.DurationVar(&o.requestTimeout, "request-timeout", 0, "server-side solve/evaluate execution budget; expired runs get 504 (0 = none; X-Deadline-Ms can only shorten it)")
	flag.IntVar(&o.maxConcurrent, "max-concurrent", 64, "max in-flight solve/evaluate executions (negative disables admission control)")
	flag.IntVar(&o.maxQueue, "queue", 0, "requests waiting for an execution slot before shedding with 503 (0 = 2x -max-concurrent, negative sheds immediately)")
	flag.DurationVar(&o.queueTimeout, "queue-timeout", 2*time.Second, "max wait for an execution slot before shedding")
	flag.DurationVar(&o.rpcTimeout, "rpc-timeout", 0, "per-RPC budget for cluster worker calls (0 = 10s)")
	flag.DurationVar(&o.breakerCool, "breaker-cooldown", 0, "first circuit-breaker open period per failing worker, doubling per re-open (0 = 1s)")
	flag.StringVar(&o.logFormat, "log-format", "text", "structured log output format: text or json")
	flag.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	flag.DurationVar(&o.slowRequest, "slow-request", 0, "log the full span tree of any /v1 request slower than this (0 = never)")
	flag.IntVar(&o.traceRing, "trace-ring", 0, "recent request traces kept for /debug/traces (0 = 128, negative disables tracing)")
	flag.BoolVar(&o.pprof, "pprof", false, "serve net/http/pprof profiles under /debug/pprof")
	flag.IntVar(&o.usageTopK, "usage-topk", 0, "distinct tenants/corpora the workload accountant tracks individually, rest in \"other\" (0 = 32, negative disables /v1/usage)")
	flag.DurationVar(&o.usageWindow, "usage-window", 0, "sliding window behind the workload accountant's request rates (0 = 60s)")
	flag.BoolVar(&o.usageMetrics, "usage-metrics", false, "expose labeled per-tenant/per-corpus usage series on the unauthenticated /metrics endpoint (labels carry tenant names and corpus IDs; keep off unless the scrape endpoint is private)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bundled:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	logger, err := obs.NewLogger(os.Stderr, o.logFormat, o.logLevel)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	cfg := server.Config{
		Logger:         logger,
		SlowRequest:    o.slowRequest,
		TraceRing:      o.traceRing,
		Pprof:          o.pprof,
		MaxSessions:    o.maxSessions,
		CacheEntries:   o.cacheEntries,
		MaxUploadBytes: o.maxUploadMB << 20,
		Quotas: server.Quotas{
			MaxCorpora:        o.quotaCorpora,
			MaxEntries:        o.quotaEntries,
			RequestsPerSecond: o.quotaRPS,
			Burst:             o.quotaBurst,
		},
		DefaultTimeout: o.requestTimeout,
		MaxConcurrent:  o.maxConcurrent,
		MaxQueue:       o.maxQueue,
		QueueTimeout:   o.queueTimeout,
		UsageTopK:      o.usageTopK,
		UsageWindow:    o.usageWindow,
		UsageMetrics:   o.usageMetrics,
	}
	switch {
	case o.authKeys != "" && o.authFile != "":
		return fmt.Errorf("-auth-keys and -auth-file are mutually exclusive")
	case o.authKeys != "":
		auth, err := server.ParseAuthKeys(o.authKeys)
		if err != nil {
			return err
		}
		cfg.Auth = auth
	case o.authFile != "":
		auth, err := server.LoadAuthKeysFile(o.authFile)
		if err != nil {
			return err
		}
		cfg.Auth = auth
	}
	if cfg.Auth.Enabled() {
		logger.Info("auth enabled", "tenants", cfg.Auth.Tenants())
	}
	if o.workers != "" {
		raw, err := cluster.Transports(o.workers, nil)
		if err != nil {
			return err
		}
		// Wrap each worker in a circuit breaker once, daemon-wide: every
		// session shares one health view per worker, a failing worker is
		// skipped (straight to the replica or local fallback) instead of
		// timing out request after request, and the breaker probes it back
		// in with exponential backoff.
		wrapped, breakers := cluster.WrapBreakers(raw, cluster.BreakerConfig{Cooldown: o.breakerCool})
		// The load recorders sit outside the breakers so breaker rejections
		// land in each worker's observed outcome mix instead of vanishing.
		transports, loads := cluster.WrapLoad(wrapped)
		// The fleet view probes the raw transports (an open breaker must not
		// veto a health probe) and joins breaker + load state per worker.
		fleet := cluster.NewFleet(cluster.FleetConfig{Probes: raw, Breakers: breakers, Loads: loads})
		cfg.Fleet = fleet.Report
		// Every uploaded corpus becomes a coordinator session: its stripe
		// spans are partitioned across the worker fleet and solves/evaluates
		// scatter/gather over it. /healthz degrades to 503 while any worker
		// is unreachable (solves still succeed via the local fallback).
		cfg.NewSolver = func(w *bundling.Matrix, opts bundling.Options) (server.Solver, error) {
			return cluster.NewSolver(w, opts, cluster.Config{Workers: transports, RequestTimeout: o.rpcTimeout})
		}
		cfg.Ready = cluster.Ready(transports, 0)
		cfg.WorkerStatus = fleet.WorkerStatus
		cfg.ExtraMetrics = fleet.MetricRows
		logger.Info("cluster mode", "workers", len(transports), "addrs", o.workers)
	}
	var store *server.Store
	if o.dataDir != "" {
		var err error
		store, err = server.OpenStore(o.dataDir)
		if err != nil {
			return err
		}
		defer func() {
			// Graceful flush: the final compaction pass runs after the
			// listener has drained and the sessions are released.
			if err := store.Close(); err != nil {
				logger.Error("store close failed", "err", err)
			}
		}()
		cfg.Store = store
	}
	srv := server.New(cfg)
	defer srv.Close()
	if store != nil {
		restored, err := srv.Restore()
		if err != nil {
			// Boot with what the manifest describes; a skipped entry reads
			// as a missing corpus, which operators can see and re-upload.
			logger.Warn("restore incomplete", "err", err)
		}
		logger.Info("serving persisted corpora (lazy: each re-indexes on first use)", "corpora", restored, "dir", store.Dir())
	}
	if o.demo {
		if err := preloadDemo(srv, o.demoUsers, o.demoItems); err != nil {
			return fmt.Errorf("demo corpus: %w", err)
		}
		logger.Info("preloaded synthetic corpus", "session", "demo", "users", o.demoUsers, "items", o.demoItems)
	}

	hs := &http.Server{
		Addr:              o.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("bundled listening", "addr", o.addr, "pprof", o.pprof)
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
	logger.Info("bundled stopped")
	return nil
}

// preloadDemo generates a deterministic synthetic corpus and registers it
// as session "demo" through the server's own HTTP handler, so a fresh
// daemon is immediately usable (and smoke-testable) without an upload step.
func preloadDemo(srv *server.Server, users, items int) error {
	ds, err := bundling.GenerateDataset(bundling.DatasetConfig{
		Users: users, Items: items, RatingsPerUser: 15, MinDegree: 4, Seed: 1,
	})
	if err != nil {
		return err
	}
	w, err := ds.WTP(bundling.DefaultLambda)
	if err != nil {
		return err
	}
	return server.Preload(srv, "demo", w, bundling.Options{})
}
