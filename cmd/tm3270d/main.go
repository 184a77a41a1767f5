// Command tm3270d serves the multi-tenant simulation daemon: clients
// create processor sessions over HTTP/JSON (POST /sessions), stream
// run requests in (POST /sessions/{id}/runs) and get structured
// results and telemetry back. Overload sheds with 429 + Retry-After,
// runs are deadline-bounded, panicking sessions are quarantined
// without taking the daemon down, and SIGTERM/SIGINT drains
// gracefully: admission closes, in-flight runs finish (or are canceled
// at the drain deadline with structured responses), the final counter
// snapshot and per-stage latency report flush to stderr, then the
// process exits.
//
// Observability: every request carries a request ID joining one
// structured (slog JSON) log line, the request's span tree and any
// error body; /metrics serves counters plus fixed-bucket latency
// histograms; -trace FILE writes the serving window (the last -span-cap
// request trees) as a Perfetto-loadable span trace on exit, sessions as
// tracks.
//
// Usage:
//
//	tm3270d [-addr :8270] [-workers N] [-queue 64] [-max-sessions 4096]
//	        [-quota 8] [-run-deadline 30s] [-drain-deadline 30s]
//	        [-retry-after 1s] [-trace FILE] [-span-cap N] [-log-json=true]
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
	"sort"
	"syscall"
	"time"

	"tm3270/internal/service"
	"tm3270/internal/telemetry"
	"tm3270/internal/tmsim"
)

func main() {
	addr := flag.String("addr", ":8270", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue depth before shedding")
	maxSessions := flag.Int("max-sessions", 4096, "live session bound")
	quota := flag.Int("quota", 8, "default per-session in-flight run quota")
	runDeadline := flag.Duration("run-deadline", 30*time.Second, "default per-run wall-clock budget")
	drainDeadline := flag.Duration("drain-deadline", 30*time.Second, "shutdown budget for in-flight runs")
	retryAfter := flag.Duration("retry-after", time.Second, "backoff hint on shed responses")
	engine := flag.String("engine", "", "default execution engine for sessions: blockcache (default) or interp")
	tracePath := flag.String("trace", "", "write the serving-window span trace (Chrome trace-event JSON) here on exit")
	spanCap := flag.Int("span-cap", 0, fmt.Sprintf("span window size: keep the last N request trees, evicting older ones (0 = %d)", telemetry.DefaultMaxSpans))
	logJSON := flag.Bool("log-json", true, "emit one structured JSON log line per request to stderr")
	flag.Parse()

	if _, err := tmsim.ParseEngine(*engine); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := service.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		MaxSessions:   *maxSessions,
		SessionQuota:  *quota,
		RunDeadline:   *runDeadline,
		RetryAfter:    *retryAfter,
		DefaultEngine: *engine,
		SpanCap:       *spanCap,
	}
	if *logJSON {
		cfg.Log = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	srv := service.New(cfg)
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "tm3270d: listening on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "tm3270d: %v: draining (budget %s)\n", s, *drainDeadline)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "tm3270d: serve: %v\n", err)
		os.Exit(1)
	}

	// Drain: stop admitting (new runs shed with 429, /readyz flips to
	// 503), wait for in-flight runs, cancel stragglers at the deadline.
	dctx, cancel := context.WithTimeout(context.Background(), *drainDeadline)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "tm3270d: drain deadline hit, stragglers canceled: %v\n", err)
	}
	// Let the HTTP server flush the drained runs' responses, then stop.
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := hs.Shutdown(hctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "tm3270d: http shutdown: %v\n", err)
	}
	srv.Close()

	if *tracePath != "" {
		if err := writeTrace(srv, *tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "tm3270d: span trace: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "tm3270d: span trace (%d request trees) written to %s\n",
				srv.Spans().Len(), *tracePath)
		}
	}

	// Flush the final telemetry snapshot and latency report so
	// operators can post-mortem a drained instance.
	fmt.Fprintln(os.Stderr, "tm3270d: final counters:")
	srv.Snapshot().WriteJSON(os.Stderr)
	latencyReport(srv)
	fmt.Fprintln(os.Stderr, "tm3270d: drained cleanly")
}

func writeTrace(srv *service.Server, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := srv.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// latencyReport prints every non-empty latency histogram's derived
// quantiles, the human half of the /metrics histograms.
func latencyReport(srv *service.Server) {
	hists := srv.Histograms()
	names := make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(os.Stderr, "tm3270d: latency p50/p95/p99 ms:")
	for _, name := range names {
		h := hists[name]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-40s %8.2f %8.2f %8.2f  (n=%d)\n",
			name, float64(h.P50US)/1000, float64(h.P95US)/1000, float64(h.P99US)/1000, h.Count)
	}
}
