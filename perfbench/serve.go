package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"tm3270/internal/config"
	"tm3270/internal/runner"
	"tm3270/internal/service"
	"tm3270/internal/workloads"
)

// serveSession is one tenant session of the serve workload.
type serveSession struct {
	workload string
	verify   bool
}

// serveConfig sizes the serve workload.
type serveConfig struct {
	sessions []serveSession
	target   config.Target
	// targetName selects target in the service API.
	targetName string
	clients    int   // closed-loop clients: each waits for its reply
	seed       int64 // sets every client's request order
	// warmRounds requests per session and client run, untimed, before
	// the window; the first requests of a fresh server run slower.
	warmRounds int
	// replays per session for the traced layer split.
	replays int
}

// defaultServeConfig is 8 small-scale sessions on target D, two of
// them with static verification on every run, driven by 2 clients.
func defaultServeConfig(seed int64) serveConfig {
	return serveConfig{
		sessions: []serveSession{
			{"memcpy", false}, {"memset", false}, {"filter", false}, {"rgb2yuv", false},
			{"mpeg2_a", false}, {"cabac_opt_p", false}, {"upconv", true}, {"mp3_synth", true},
		},
		target:     config.ConfigD(),
		targetName: "D",
		clients:    2,
		seed:       seed,
		warmRounds: 10,
		replays:    5,
	}
}

// serveSlice is the length of one throughput slice of the window.
const serveSlice = time.Second

// requestOrder returns client c's first n requests as session indices:
// rounds of seeded permutations, so every session is asked equally
// often and the order is a pure function of (seed, client).
func requestOrder(seed int64, client, sessions, n int) []int {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	out := make([]int, 0, n+sessions)
	for len(out) < n {
		out = append(out, rng.Perm(sessions)...)
	}
	return out[:n]
}

// expected holds a session's direct-run results every reply must match.
type expected struct {
	cycles, instrs, translated, hits int64
}

// serveBench runs an in-process tm3270d behind httptest.
type serveBench struct {
	cfg    serveConfig
	target config.Target
	cache  *runner.Cache
	srv    *service.Server
	ts     *httptest.Server
	tr     *http.Transport
	client *service.Client
	ids    []string
	want   []expected
	next   []int // each client's position in its request order
	served []int // replies per session in the current window
	done   []completion
}

// completion is one checked reply: when it arrived in the window and
// the instructions it retired.
type completion struct {
	at     time.Duration
	instrs int64
}

func newServe(cfg serveConfig) *serveBench { return &serveBench{cfg: cfg} }

// setUp boots a fresh server with an empty compile cache and creates
// the sessions; session creation compiles each kernel.
func (b *serveBench) setUp() error {
	b.close()
	b.target = b.cfg.target
	b.cache = runner.NewCache()
	b.srv = service.New(service.Config{Cache: b.cache})
	b.ts = httptest.NewServer(b.srv.Handler())
	b.tr = &http.Transport{MaxIdleConnsPerHost: 8}
	// One attempt: a shed reply is a failed op, not a retry.
	b.client = &service.Client{Base: b.ts.URL, HTTP: &http.Client{Transport: b.tr}, MaxAttempts: 1}
	ctx := context.Background()
	if err := b.client.WaitReady(ctx); err != nil {
		return err
	}
	b.ids = b.ids[:0]
	for _, s := range b.cfg.sessions {
		info, err := b.client.CreateSession(ctx, service.CreateSessionRequest{
			Workload: s.workload, Target: b.cfg.targetName, Options: service.SessionOptions{Verify: s.verify}})
		if err != nil {
			return fmt.Errorf("create session %s: %w", s.workload, err)
		}
		b.ids = append(b.ids, info.ID)
	}
	b.next = make([]int, b.cfg.clients)
	return nil
}

// warmUp computes the expected reply of every session with a direct
// runner.RunContext, then serves warm-up requests.
func (b *serveBench) warmUp(ctx context.Context) error {
	b.want = b.want[:0]
	for _, s := range b.cfg.sessions {
		w, err := workloads.ByName(s.workload, workloads.Small())
		if err != nil {
			return err
		}
		res, err := runner.RunContext(ctx, w, b.target, runner.WithVerify(s.verify))
		if err != nil {
			return fmt.Errorf("direct run of %s: %w", s.workload, err)
		}
		bc := res.Machine.BlockCacheStats()
		b.want = append(b.want, expected{res.Stats.Cycles, res.Stats.Instrs, bc.Translated, bc.Hits})
	}
	var w window
	for c := 0; c < b.cfg.clients; c++ {
		for _, s := range requestOrder(b.cfg.seed, c, len(b.ids), b.cfg.warmRounds*len(b.ids)) {
			b.request(ctx, s, &w, nil, nil, time.Now())
		}
	}
	if w.failed > 0 {
		return fmt.Errorf("warm-up: %v", w.failures)
	}
	return nil
}

// request sends one run to session s and checks the reply.
func (b *serveBench) request(ctx context.Context, s int, w *window, mu *sync.Mutex, o *opTrace, start time.Time) {
	t0 := time.Now()
	var rep *service.RunReply
	var err error
	o.layer("service.client", func() { rep, err = b.client.Run(ctx, b.ids[s], service.RunRequest{}) })
	lat := time.Since(t0)
	if mu != nil {
		mu.Lock()
		defer mu.Unlock()
	}
	w.attempted++
	switch {
	case err != nil:
		w.fail("%s: %v", b.cfg.sessions[s].workload, err)
		return
	case rep.Status != service.StatusOK:
		w.fail("%s: status %s: %s", b.cfg.sessions[s].workload, rep.Status, rep.Error)
		return
	}
	got := expected{cycles: rep.Cycles, instrs: rep.Instrs}
	if rep.BlockCache != nil {
		got.translated, got.hits = rep.BlockCache.Translated, rep.BlockCache.Hits
	}
	if got != b.want[s] {
		w.fail("%s: reply %+v differs from a direct run %+v", b.cfg.sessions[s].workload, got, b.want[s])
		return
	}
	w.latMS = append(w.latMS, float64(lat)/1e6)
	w.simInstrs += rep.Instrs
	if b.served != nil {
		b.served[s]++
		b.done = append(b.done, completion{time.Since(start), rep.Instrs})
	}
}

// slice splits the window into serveSlice intervals (one interval for a
// window shorter than that) and marks what completed in each.
func (b *serveBench) slice(w *window, d time.Duration) {
	sl := min(serveSlice, d)
	n := int(d / sl)
	ops := make([]int, n)
	instrs := make([]int64, n)
	for _, c := range b.done {
		if i := int(c.at / sl); i < n {
			ops[i]++
			instrs[i] += c.instrs
		}
	}
	for i := range ops {
		w.slices = append(w.slices, slice{sl.Seconds(), ops[i], instrs[i]})
	}
}

func (b *serveBench) measure(ctx context.Context, d time.Duration, rec *recorder) (*window, error) {
	w := &window{pass: passCounts{haveCycles: true, haveCache: true}}
	for _, e := range b.want {
		w.pass.instrs += e.instrs
		w.pass.cycles += e.cycles
		w.pass.translated += e.translated
		w.pass.hits += e.hits
	}
	var before *service.Metrics
	if rec != nil {
		var err error
		if before, err = b.client.Metrics(ctx); err != nil {
			return nil, err
		}
	}
	b.served = make([]int, len(b.ids))
	b.done = b.done[:0]
	defer func() { b.served = nil }()
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < b.cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			order := requestOrder(b.cfg.seed, c, len(b.ids), 1<<12)
			for time.Since(start) < d {
				s := order[b.next[c]%len(order)]
				b.next[c]++
				o := rec.startOp("request")
				b.request(ctx, s, w, &mu, o, start)
				o.end()
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	b.slice(w, d)
	w.rateFromSlices()
	if rec != nil {
		after, err := b.client.Metrics(ctx)
		if err != nil {
			return nil, err
		}
		w.layers = map[string]float64{}
		if err := b.layerSplit(ctx, w, rec, before, after); err != nil {
			return nil, err
		}
		w.pass.metrics(w.layers)
	}
	return w, nil
}

// layerSplit fills the serve workload's per-layer metrics. The service
// layers come from the server's own stage histograms over the window;
// the layers inside a run (binverify, init, load, run, check) cannot be
// reached from outside the server, so each session's kernel is replayed
// through them directly and weighted by the session's share of replies.
func (b *serveBench) layerSplit(ctx context.Context, w *window, rec *recorder, before, after *service.Metrics) error {
	replies := len(w.latMS)
	if replies == 0 {
		return fmt.Errorf("traced window served no replies")
	}
	stageMS := func(name string) float64 {
		a, z := before.Histograms[name], after.Histograms[name]
		if n := z.Count - a.Count; n > 0 {
			return float64(z.SumUS-a.SumUS) / 1000 / float64(n)
		}
		return 0
	}
	counter := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	roundTrip := perOpMS(rec.sum("service.client").ns, replies)
	execute := stageMS("service.latency.stage.execute")
	w.layers["service.queue.ms"] = stageMS("service.latency.stage.queue")
	w.layers["service.execute.ms"] = execute
	w.layers["service.encode.ms"] = stageMS("service.latency.stage.encode")
	w.layers["service.overhead.ms"] = roundTrip - execute
	w.layers["service.shed"] = float64(counter("service.shed.queue") + counter("service.shed.quota") +
		counter("service.shed.draining"))
	if hits, misses := counter("service.cache.hit"), counter("service.cache.miss"); hits+misses > 0 {
		w.layers["runner.cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}

	inRun := []string{"binverify.verify", "workloads.init", "tmsim.load", "tmsim.run", "workloads.check"}
	var runInstrs float64
	for s, sess := range b.cfg.sessions {
		wl, err := workloads.ByName(sess.workload, workloads.Small())
		if err != nil {
			return err
		}
		art, err := b.cache.Artifact(sess.workload, workloads.Small(), b.target)
		if err != nil {
			return err
		}
		one := newRecorder()
		for r := 0; r < b.cfg.replays; r++ {
			o := one.startOp(sess.workload)
			if sess.verify {
				o.layer("binverify.verify", func() { _, err = art.VerifyStatic(&b.target, art.VerifyOptions(wl)) })
				if err != nil {
					return err
				}
			}
			c, err := (&kernel{spec: wl, art: art}).run(ctx, b.target, o)
			o.end()
			if err != nil {
				return err
			}
			if c.instrs != b.want[s].instrs {
				return fmt.Errorf("%s: replay retired %d instrs, direct run %d", sess.workload, c.instrs, b.want[s].instrs)
			}
		}
		share := float64(b.served[s]) / float64(replies)
		for _, l := range inRun {
			w.layers[l+".ms"] += share * perOpMS(one.sum(l).ns, b.cfg.replays)
		}
		if sess.verify {
			w.layers["binverify.calls"] += share
		}
		runInstrs += share * float64(b.want[s].instrs)
	}
	if ms := w.layers["tmsim.run.ms"]; ms > 0 {
		w.layers["tmsim.minstr_per_s"] = runInstrs / ms / 1e3
	}
	unattributed := execute
	for _, l := range inRun {
		unattributed -= w.layers[l+".ms"]
	}
	w.layers["unattributed.ms"] = unattributed
	return nil
}

func (b *serveBench) close() {
	if b.ts != nil {
		b.ts.Close()
		b.tr.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		b.srv.Drain(ctx)
		cancel()
		b.srv.Close()
		b.ts, b.srv = nil, nil
	}
}
