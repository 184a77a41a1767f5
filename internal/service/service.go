// Package service is the multi-tenant simulation daemon behind
// cmd/tm3270d: clients create processor sessions over a CTRL plane
// (POST/GET/PUT/DELETE on /sessions, the MediaProcessors shape) and
// stream run requests in / results and telemetry snapshots out over a
// decoupled I/O plane (POST /sessions/{id}/runs), backed by the batch
// runner's worker pool and singleflight compile-artifact cache.
//
// The headline is the robustness envelope, not the plumbing:
//
//   - Bounded admission. A server-wide queue (runner.Pool's TrySubmit
//     bound) and per-session quotas shed overload as 429 + Retry-After
//     instead of queueing without bound. The daemon never answers a
//     data-plane request with a 5xx.
//   - Deadlines. Per-session and per-request deadlines map onto
//     RunContext cancellation: an expired run surfaces as a structured
//     timeout response (tmsim's TrapCanceled), never a hung connection.
//   - Panic isolation. A run that panics — in workload init, output
//     check, or a simulator-core fault the machine reports as
//     TrapInternal — quarantines its session and increments a counter;
//     every other session keeps streaming.
//   - Graceful drain. Drain stops admission, waits for in-flight runs
//     within the caller's deadline, then cancels stragglers
//     cooperatively; every admitted run still delivers its response.
//   - Observability. Health/readiness endpoints and /metrics are fed
//     by the telemetry counter registry the simulator already uses.
package service

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tm3270/internal/config"
	"tm3270/internal/runner"
	"tm3270/internal/telemetry"
)

// Config tunes the server. The zero value selects sane defaults.
type Config struct {
	// Workers bounds concurrent simulations (<=0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds runs accepted but not yet executing; a full
	// queue sheds with 429 (default 64).
	QueueDepth int
	// MaxSessions bounds live sessions; excess creations shed with 429
	// (default 4096).
	MaxSessions int
	// SessionQuota is the default per-session bound on in-flight runs
	// (default 8); sessions may lower or raise it at create/retune.
	SessionQuota int
	// RunDeadline is the default per-run wall-clock budget (default
	// 30s); sessions and individual requests may override it.
	RunDeadline time.Duration
	// RetryAfter is the backoff hint attached to every shed response
	// (default 1s).
	RetryAfter time.Duration
	// DefaultEngine is the execution engine for sessions that do not
	// pick one ("blockcache" or "interp"; empty means blockcache). The
	// value must parse with tmsim.ParseEngine — the daemon validates
	// its flag before constructing the server.
	DefaultEngine string
	// Cache memoizes compile artifacts across sessions; nil allocates a
	// private one.
	Cache *runner.Cache
	// BeforeRun, when non-nil, is invoked on the worker goroutine
	// before each run executes, inside the panic-isolation scope. The
	// chaos suite uses it to inject worker-level failures; production
	// servers leave it nil.
	BeforeRun func(sessionID string, seq int64)
	// Log receives one structured line per request (the request ID
	// joins it to spans and metrics); nil discards.
	Log *slog.Logger
	// SpanCap is the serving window's size: the span recorder keeps the
	// last SpanCap request trees and evicts older ones (<=0 selects
	// telemetry.DefaultMaxSpans).
	SpanCap int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.QueueDepth <= 0 {
		out.QueueDepth = 64
	}
	if out.MaxSessions <= 0 {
		out.MaxSessions = 4096
	}
	if out.SessionQuota <= 0 {
		out.SessionQuota = 8
	}
	if out.RunDeadline <= 0 {
		out.RunDeadline = 30 * time.Second
	}
	if out.RetryAfter <= 0 {
		out.RetryAfter = time.Second
	}
	if out.Cache == nil {
		out.Cache = runner.NewCache()
	}
	return out
}

// counters is the server's atomic counter block, exposed through the
// telemetry registry (snapshot reads load atomically, so the registry
// stays race-free under concurrent handlers).
type counters struct {
	admitted, completed                              atomic.Int64
	shedQueue, shedQuota, shedDraining, shedSessions atomic.Int64
	runsOK, runsTrap, runsTimeout, runsCanceled      atomic.Int64
	runsCheckFailed, runsPanic                       atomic.Int64
	runsBlockCache, runsInterp                       atomic.Int64
	bcTranslated, bcHits, bcInvalidations            atomic.Int64
	bcFallbacks                                      atomic.Int64
	panics, quarantines                              atomic.Int64
	sessionsCreated, sessionsDeleted                 atomic.Int64
}

// latencyHists is the server's fixed-bucket latency histogram block:
// one histogram per run stage (each observed exactly once per admitted
// run, so every stage histogram's bucket sum equals
// service.runs.admitted) plus one per route.
type latencyHists struct {
	admit, queue, compile, execute, encode, run *telemetry.Histogram
	route                                       map[string]*telemetry.Histogram
}

// Server is one daemon instance. Create it with New, serve its
// Handler, and shut it down with Drain followed by Close.
type Server struct {
	cfg     Config
	cache   *runner.Cache
	pool    *runner.Pool
	reg     *telemetry.Registry
	spans   *telemetry.Spans
	log     *slog.Logger
	lat     latencyHists
	nextReq atomic.Int64
	start   time.Time

	// The server's own lifetime, not a request's: every session context
	// derives from it so Close cancels the whole tree.
	rootCtx    context.Context //tmvet:allow
	rootCancel context.CancelFunc

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   atomic.Int64

	// drainMu orders admission against Drain: admission holds the read
	// side around (draining check, runs.Add), Drain holds the write
	// side to flip the flag, so no run slips past a started drain.
	drainMu  sync.RWMutex
	draining bool
	runs     sync.WaitGroup

	c counters
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	c := cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	log := c.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:        c,
		cache:      c.Cache,
		pool:       runner.NewPool(c.Workers, c.QueueDepth),
		reg:        telemetry.NewRegistry(),
		spans:      telemetry.NewSpans(c.SpanCap),
		log:        log,
		start:      time.Now(),
		rootCtx:    ctx,
		rootCancel: cancel,
		sessions:   make(map[string]*Session),
	}
	s.register()
	return s
}

// register wires the counter block into the telemetry registry under
// the service's stable dotted names.
func (s *Server) register() {
	c := &s.c
	s.reg.Func("service.runs.admitted", c.admitted.Load)
	s.reg.Func("service.runs.completed", c.completed.Load)
	s.reg.Func("service.runs.ok", c.runsOK.Load)
	s.reg.Func("service.runs.trap", c.runsTrap.Load)
	s.reg.Func("service.runs.timeout", c.runsTimeout.Load)
	s.reg.Func("service.runs.canceled", c.runsCanceled.Load)
	s.reg.Func("service.runs.checkfail", c.runsCheckFailed.Load)
	s.reg.Func("service.runs.panic", c.runsPanic.Load)
	s.reg.Func("service.runs.engine.blockcache", c.runsBlockCache.Load)
	s.reg.Func("service.runs.engine.interp", c.runsInterp.Load)
	s.reg.Func("service.blockcache.translated", c.bcTranslated.Load)
	s.reg.Func("service.blockcache.hits", c.bcHits.Load)
	s.reg.Func("service.blockcache.invalidations", c.bcInvalidations.Load)
	s.reg.Func("service.blockcache.fallbacks", c.bcFallbacks.Load)
	s.reg.Func("service.shed.queue", c.shedQueue.Load)
	s.reg.Func("service.shed.quota", c.shedQuota.Load)
	s.reg.Func("service.shed.draining", c.shedDraining.Load)
	s.reg.Func("service.shed.sessions", c.shedSessions.Load)
	s.reg.Func("service.panics", c.panics.Load)
	s.reg.Func("service.quarantines", c.quarantines.Load)
	s.reg.Func("service.sessions.created", c.sessionsCreated.Load)
	s.reg.Func("service.sessions.deleted", c.sessionsDeleted.Load)
	s.reg.Func("service.sessions.live", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.sessions))
	})
	s.reg.Func("service.cache.hit", func() int64 { return s.cache.Stats().Hits })
	s.reg.Func("service.cache.miss", func() int64 { return s.cache.Stats().Misses })

	// Per-stage latency histograms: each observed exactly once per
	// admitted run, so bucket sums equal service.runs.admitted (the
	// smoke test's well-formedness assertion).
	newH := func() *telemetry.Histogram { return telemetry.NewHistogram(nil) }
	s.lat.admit = newH()
	s.lat.queue = newH()
	s.lat.compile = newH()
	s.lat.execute = newH()
	s.lat.encode = newH()
	s.lat.run = newH()
	s.reg.Histogram("service.latency.stage.admit", s.lat.admit)
	s.reg.Histogram("service.latency.stage.queue", s.lat.queue)
	s.reg.Histogram("service.latency.stage.compile", s.lat.compile)
	s.reg.Histogram("service.latency.stage.execute", s.lat.execute)
	s.reg.Histogram("service.latency.stage.encode", s.lat.encode)
	s.reg.Histogram("service.latency.stage.run", s.lat.run)

	// Per-route latency histograms, observed by the middleware for
	// every request of the route (shed and error responses included).
	s.lat.route = make(map[string]*telemetry.Histogram)
	rt := func(label string) *telemetry.Histogram {
		h := telemetry.NewHistogram(nil)
		s.lat.route[label] = h
		return h
	}
	s.reg.Histogram("service.latency.route.sessions.create", rt("sessions.create"))
	s.reg.Histogram("service.latency.route.sessions.list", rt("sessions.list"))
	s.reg.Histogram("service.latency.route.sessions.get", rt("sessions.get"))
	s.reg.Histogram("service.latency.route.sessions.retune", rt("sessions.retune"))
	s.reg.Histogram("service.latency.route.sessions.delete", rt("sessions.delete"))
	s.reg.Histogram("service.latency.route.runs", rt("runs"))
	s.reg.Histogram("service.latency.route.runs.trace", rt("runs.trace"))
	s.reg.Histogram("service.latency.route.healthz", rt("healthz"))
	s.reg.Histogram("service.latency.route.readyz", rt("readyz"))
	s.reg.Histogram("service.latency.route.metrics", rt("metrics"))
}

// Snapshot returns a point-in-time view of every service counter.
func (s *Server) Snapshot() telemetry.Snapshot { return s.reg.Snapshot() }

// Histograms snapshots every latency histogram, keyed by dotted name.
func (s *Server) Histograms() map[string]telemetry.HistogramSnapshot {
	return s.reg.Histograms()
}

// Spans returns the serving-window span recorder, which keeps the
// most recent Config.SpanCap request trees.
func (s *Server) Spans() *telemetry.Spans { return s.spans }

// WriteTrace exports the serving window's span trees (the most recent
// Config.SpanCap requests) as a Perfetto-loadable Chrome trace-event
// file: one track per session, each request a span tree of admit →
// queue-wait → compile → execute (with a verify child on verify
// sessions) → encode-response stages.
func (s *Server) WriteTrace(w io.Writer) error { return s.spans.WriteTrace(w) }

// Draining reports whether a drain has started.
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// admit registers one run against the drain barrier. It fails exactly
// when a drain has started.
func (s *Server) admit() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.runs.Add(1)
	return true
}

// Drain stops admission and waits for in-flight runs. If ctx expires
// first, every session is canceled so the stragglers abort
// cooperatively — their responses are still delivered (as structured
// cancellations), just not their full simulations. Drain returns nil
// on a clean drain and ctx.Err() when it had to cancel.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.runs.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, sess := range s.sessions {
			sess.cancel()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close cancels every session and stops the worker pool. Call it after
// Drain (or alone in tests); it does not wait for HTTP responses —
// that is the HTTP server's Shutdown.
func (s *Server) Close() {
	s.rootCancel()
	s.pool.Close()
}

// newSessionID mints a process-unique session identifier.
func (s *Server) newSessionID() string {
	return fmt.Sprintf("s-%d", s.nextID.Add(1))
}

// parseTarget maps the API's target names onto the paper's processor
// configurations.
func parseTarget(name string) (config.Target, error) {
	switch strings.ToLower(name) {
	case "", "d", "tm3270":
		return config.ConfigD(), nil
	case "a", "tm3260":
		return config.ConfigA(), nil
	case "b":
		return config.ConfigB(), nil
	case "c":
		return config.ConfigC(), nil
	}
	return config.Target{}, fmt.Errorf("unknown target %q (want A-D, TM3260 or TM3270)", name)
}
