// Command perfbench is the repository benchmark. It runs one workload
// — paper, cosim or serve — for a fixed window, checks every output the
// window produced, and prints each metric by name and unit, ending with
// one JSON result line:
//
//	perfbench -workload paper -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured with
// tracing off. With -trace 1 it runs the window twice, untraced then
// traced, single-stream (one campaign worker, one client) so that
// allocation deltas are attributable, and reports the per-layer
// metrics plus the tracing overhead (traced minus untraced end-to-end
// figures). It drives every layer from outside, through the packages'
// exported functions. README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bench is one workload.
type bench interface {
	// setUp builds everything the timed window needs: compiles, server
	// boot, session creation. Set-up and warm-up run several times
	// (timeSetUp); each set-up replaces the previous state.
	setUp() error
	// warmUp runs untimed ops so that caches, heap growth and block
	// translation have settled before the window opens.
	warmUp(ctx context.Context) error
	// measure runs one timed window of at least d. A non-nil rec traces
	// it. Failed ops are counted in the window, not returned as errors.
	measure(ctx context.Context, d time.Duration, rec *recorder) (*window, error)
	close()
}

// window is what one timed window measured.
type window struct {
	elapsed   time.Duration
	attempted int
	failed    int
	failures  []string  // the first few failures, for the report
	latMS     []float64 // per-op round trips of completed ops
	simInstrs int64     // simulated instructions retired in the window

	// slices split the window into consecutive parts: whole passes, or
	// fixed intervals for serve. Throughput and peak memory are medians
	// over them, so a burst of host noise inside one slice does not move
	// the figure.
	slices      []slice
	sliceOps    int // counts at the last mark
	sliceInstrs int64
	// opsPerS and minstrPerS are the window's throughput.
	opsPerS, minstrPerS float64

	// pass holds the deterministic simulated counts of one pass (26
	// kernels, one campaign, one request to each session). Every pass
	// of every window must agree, traced or not.
	pass passCounts
	// layers holds the traced window's per-layer metrics.
	layers map[string]float64
}

// passCounts are simulated, not host, quantities: they repeat exactly.
type passCounts struct {
	instrs, cycles        int64
	translated, hits      int64
	units                 int64
	aggregate             string // cosim: hash of the campaign aggregate
	haveCycles, haveCache bool   // cycles/blockcache are only visible on some paths
}

// slice is one part of a window: its length and what completed in it.
type slice struct {
	secs   float64
	ops    int
	instrs int64
}

// mark closes a slice of the given length at the current counts.
func (w *window) mark(d time.Duration) {
	ops := w.attempted - w.failed
	w.slices = append(w.slices, slice{d.Seconds(), ops - w.sliceOps, w.simInstrs - w.sliceInstrs})
	w.sliceOps, w.sliceInstrs = ops, w.simInstrs
}

// rateFromSlices sets the window's throughput to the median over its
// slices.
func (w *window) rateFromSlices() {
	var ops, instrs []float64
	for _, s := range w.slices {
		ops = append(ops, float64(s.ops)/s.secs)
		instrs = append(instrs, float64(s.instrs)/s.secs/1e6)
	}
	w.opsPerS, w.minstrPerS = median(ops), median(instrs)
}

const maxFailures = 5

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.failures) < maxFailures {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

// endToEndMetrics derives the user-visible figures of a window.
func (w *window) endToEndMetrics() map[string]float64 {
	lat := append([]float64(nil), w.latMS...)
	sort.Float64s(lat)
	return map[string]float64{
		"ops_per_s":        w.opsPerS,
		"sim_minstr_per_s": w.minstrPerS,
		"latency_p50_ms":   quantile(lat, 0.50),
		"latency_p99_ms":   quantile(lat, 0.99),
	}
}

// samePass reports whether two windows saw identical simulated counts.
// Counts a path cannot see (cycles through the untraced campaign
// runner) are compared only when both windows have them.
func samePass(a, b passCounts) error {
	if a.instrs != b.instrs || a.units != b.units || a.aggregate != b.aggregate {
		return fmt.Errorf("simulated counts differ: instrs %d vs %d, units %d vs %d, aggregate equal=%v",
			a.instrs, b.instrs, a.units, b.units, a.aggregate == b.aggregate)
	}
	if a.haveCycles && b.haveCycles && a.cycles != b.cycles {
		return fmt.Errorf("simulated cycles differ: %d vs %d", a.cycles, b.cycles)
	}
	if a.haveCache && b.haveCache && (a.translated != b.translated || a.hits != b.hits) {
		return fmt.Errorf("blockcache counts differ: %d/%d vs %d/%d", a.translated, a.hits, b.translated, b.hits)
	}
	return nil
}

// metrics reports a traced pass's simulated counts.
func (p passCounts) metrics(out map[string]float64) {
	out["tmsim.sim_instrs"] = float64(p.instrs)
	out["tmsim.sim_cycles"] = float64(p.cycles)
	out["blockcache.translated"] = float64(p.translated)
	out["blockcache.hits"] = float64(p.hits)
	if n := p.translated + p.hits; n > 0 {
		out["blockcache.hit_ratio"] = float64(p.hits) / float64(n)
	}
}

// newBench builds a workload at its benchmark scale. traced selects
// the single-stream variant.
func newBench(name string, seed int64, traced bool) (bench, error) {
	switch name {
	case "paper":
		cfg := defaultPaperConfig()
		if traced {
			cfg.minPasses = 1
		}
		return newPaper(cfg), nil
	case "cosim":
		cfg := defaultCosimConfig(seed)
		if traced {
			cfg.workers = 1
		}
		return newCosim(cfg), nil
	case "serve":
		cfg := defaultServeConfig(seed)
		if traced {
			cfg.clients = 1
		}
		return newServe(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, cosim or serve)", name)
}

// outcome is one benchmark invocation's result.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string
	checkErr  error // a correctness check that failed outside op accounting
	notes     []string
	spans     *recorder
}

// execute runs set-up, warm-up and the window(s) of one workload.
func execute(ctx context.Context, b bench, d time.Duration, traced bool) (*outcome, error) {
	defer b.close()
	// Set-up time is everything before the window: the set-up proper
	// and the warm-up, so work moved out of the window into either shows.
	setupS, err := timeSetUp(func() error {
		if err := b.setUp(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if err := b.warmUp(ctx); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	if !traced {
		rss := startRSS()
		w, err := b.measure(ctx, d, nil)
		peak, rssErr := rss.peak(w)
		if err != nil {
			return nil, err
		}
		if rssErr != nil {
			return nil, rssErr
		}
		out.add(w)
		for k, v := range w.endToEndMetrics() {
			out.metrics[k] = v
		}
		out.metrics["setup_s"] = setupS
		out.metrics["peak_rss_mb"] = peak
		return out, nil
	}

	plain, err := b.measure(ctx, d/2, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	tw, err := b.measure(ctx, d/2, rec)
	if err != nil {
		return nil, err
	}
	out.add(plain)
	out.add(tw)
	out.spans = rec
	if err := samePass(plain.pass, tw.pass); err != nil {
		out.checkErr = fmt.Errorf("traced vs untraced window: %w", err)
	}
	for _, m := range perLayer {
		out.metrics[m.Name] = 0
	}
	for k, v := range tw.layers {
		out.metrics[k] = v
	}
	base, traceE2E := plain.endToEndMetrics(), tw.endToEndMetrics()
	for k, v := range traceE2E {
		out.metrics["trace_overhead."+k] = v - base[k]
	}
	out.notes = append(out.notes, fmt.Sprintf("untraced %.1f s / traced %.1f s windows, %d / %d ops",
		plain.elapsed.Seconds(), tw.elapsed.Seconds(), plain.attempted, tw.attempted))
	return out, nil
}

func (o *outcome) add(w *window) {
	o.attempted += w.attempted
	o.failed += w.failed
	o.failures = append(o.failures, w.failures...)
	o.notes = append(o.notes, fmt.Sprintf("window %.2f s: %d ops attempted, %d failed, %d latency samples",
		w.elapsed.Seconds(), w.attempted, w.failed, len(w.latMS)))
	if w.pass.aggregate != "" {
		o.notes = append(o.notes, "campaign aggregate "+w.pass.aggregate[:16]+"…")
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: paper, cosim or serve")
	seed := fs.Int64("seed", 1, "input seed (cosim: progen seed range; serve: request order)")
	seconds := fs.Int("seconds", runSeconds, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its span trees to (Chrome trace JSON)")
	writeSpec := fs.String("write-spec", "", "write the benchmark definition (BENCHMARK.json) to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeSpec != "" {
		b, err := benchmarkJSON()
		if err == nil {
			err = os.WriteFile(*writeSpec, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	traced := *trace == 1
	b, err := newBench(*workload, *seed, traced)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	root, _ := os.Getwd()
	fmt.Fprintf(stdout, "host: %s\n", hostStamp(root))
	out, err := execute(context.Background(), b, time.Duration(*seconds)*time.Second, traced)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	if traced && *spansDir != "" {
		if err := writeSpans(out.spans, filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", *workload, *seed))); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	correct := out.failed == 0 && out.checkErr == nil
	if err := report(stdout, defs, out, correct); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !correct {
		for _, f := range out.failures {
			fmt.Fprintln(stderr, "perfbench: FAILED:", f)
		}
		if out.checkErr != nil {
			fmt.Fprintln(stderr, "perfbench: FAILED:", out.checkErr)
		}
		return 1
	}
	return 0
}

// report prints every metric of defs as a "name value unit" line, then
// the JSON result line.
func report(w io.Writer, defs []metricDef, out *outcome, correct bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		v, ok := out.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		fmt.Fprintf(w, "  %-34s %16.6f %s\n", m.Name, v, m.Unit)
		metrics[m.Name] = value{v, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func writeSpans(rec *recorder, path string) error {
	if rec == nil {
		return errors.New("no spans recorded")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.spans.WriteTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
