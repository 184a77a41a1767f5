package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tm3270/internal/telemetry"
)

// recorder collects a traced window: one root span per op with one
// child span per layer call, kept in memory for export, plus per-layer
// sums of host time and heap allocations. A nil *recorder is the
// untraced state.
type recorder struct {
	spans *telemetry.Spans

	mu     sync.Mutex
	layers map[string]*layerSum
	opNS   int64 // Σ root span durations
}

type layerSum struct{ ns, allocs int64 }

func newRecorder() *recorder {
	return &recorder{spans: telemetry.NewSpans(0), layers: map[string]*layerSum{}}
}

// opTrace is one op's span tree. A nil *opTrace runs layer calls bare.
type opTrace struct {
	rec  *recorder
	root *telemetry.Span
}

func (r *recorder) startOp(name string) *opTrace {
	if r == nil {
		return nil
	}
	return &opTrace{rec: r, root: telemetry.NewSpan(name)}
}

// layer runs fn as one call into the named layer.
func (o *opTrace) layer(name string, fn func()) { o.timed(name, false, fn) }

// layerAllocs is layer plus the heap objects fn allocated; the delta
// is process-wide, so it is attributable only with one op in flight.
func (o *opTrace) layerAllocs(name string, fn func()) { o.timed(name, true, fn) }

func (o *opTrace) timed(name string, allocs bool, fn func()) {
	if o == nil {
		fn()
		return
	}
	var a0 uint64
	if allocs {
		a0 = heapObjects()
	}
	t0 := time.Now()
	sp := o.root.StartChildAt(name, t0)
	fn()
	t1 := time.Now()
	sp.EndAt(t1)
	var da int64
	if allocs {
		da = int64(heapObjects() - a0)
	}
	o.rec.add(name, t1.Sub(t0), da)
}

func (o *opTrace) end() {
	if o == nil {
		return
	}
	o.root.End()
	o.rec.spans.Record(o.root)
	o.rec.mu.Lock()
	o.rec.opNS += int64(o.root.Duration())
	o.rec.mu.Unlock()
}

func (r *recorder) add(name string, d time.Duration, allocs int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.layers[name]
	if s == nil {
		s = &layerSum{}
		r.layers[name] = s
	}
	s.ns += int64(d)
	s.allocs += allocs
}

// sum returns a layer's totals (zero when it never ran).
func (r *recorder) sum(name string) layerSum {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.layers[name]; s != nil {
		return *s
	}
	return layerSum{}
}

// layerMetrics turns the recorder into per-op layer metrics: each
// layer's host time per op under its "<layer>.ms" name, and the
// unattributed remainder — op time no layer span covers.
func (r *recorder) layerMetrics(ops int, out map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var layerNS int64
	for name, s := range r.layers {
		out[name+".ms"] = perOpMS(s.ns, ops)
		layerNS += s.ns
	}
	out["unattributed.ms"] = perOpMS(r.opNS-layerNS, ops)
}

func perOpMS(ns int64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(ns) / 1e6 / float64(ops)
}

var heapSample = struct {
	sync.Mutex
	s []metrics.Sample
}{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}

// heapObjects returns the cumulative count of heap objects allocated
// by the process.
func heapObjects() uint64 {
	heapSample.Lock()
	defer heapSample.Unlock()
	metrics.Read(heapSample.s)
	return heapSample.s[0].Value.Uint64()
}

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// timeSetUp runs setUp at least minSetUps times and for at least
// minSetUpTime, and returns the median duration in seconds. Repeating
// keeps a one-off stall from moving the figure; the state of the last
// run is the one the benchmark uses.
func timeSetUp(setUp func() error) (float64, error) {
	const minSetUps, minSetUpTime = 3, 250 * time.Millisecond
	var runs []float64
	start := time.Now()
	for len(runs) < minSetUps || time.Since(start) < minSetUpTime {
		t0 := time.Now()
		if err := setUp(); err != nil {
			return 0, err
		}
		runs = append(runs, time.Since(t0).Seconds())
	}
	return median(runs), nil
}

// rssEvery is the resident-set sampling interval.
const rssEvery = 10 * time.Millisecond

// rssSampler samples the process's resident set while a window runs.
type rssSampler struct {
	start   time.Time
	stop    chan struct{}
	done    chan struct{}
	samples []rssSample
	err     error
}

type rssSample struct {
	at time.Duration // since the sampler started
	mb float64
}

func startRSS() *rssSampler {
	s := &rssSampler{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			mb, err := residentMB()
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, rssSample{time.Since(s.start), mb})
			select {
			case <-tick.C:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// peak stops sampling and returns the median over the window's slices
// of the highest resident set sampled in each.
func (s *rssSampler) peak(w *window) (float64, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, fmt.Errorf("resident set: %w", s.err)
	}
	var peaks []float64
	var end time.Duration
	i := 0
	for _, sl := range w.slices {
		end += time.Duration(sl.secs * 1e9)
		p := 0.0
		for ; i < len(s.samples) && s.samples[i].at < end; i++ {
			p = max(p, s.samples[i].mb)
		}
		if p > 0 {
			peaks = append(peaks, p)
		}
	}
	if len(peaks) == 0 {
		return 0, fmt.Errorf("resident set: no samples in the window")
	}
	return median(peaks), nil
}

// residentMB returns the process's current resident set in MB.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("malformed /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// hostStamp names the machine and build a result was measured on.
func hostStamp(root string) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "none"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return "cpu=" + strconv.Quote(cpu) +
		" nproc=" + strconv.Itoa(runtime.NumCPU()) +
		" gomaxprocs=" + strconv.Itoa(runtime.GOMAXPROCS(0)) +
		" go=" + runtime.Version() +
		" commit=" + commit +
		" tree=" + treeHash(root)
}

// treeHash fingerprints the Go sources and module files under root, so
// a result taken outside a git checkout still names the code it ran.
func treeHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
