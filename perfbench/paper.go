package main

import (
	"context"
	"fmt"
	"time"

	"tm3270/internal/config"
	"tm3270/internal/mem"
	"tm3270/internal/runner"
	"tm3270/internal/workloads"
)

// paperConfig sizes the paper workload.
type paperConfig struct {
	params workloads.Params
	names  []string
	target config.Target
	// warmNames are run once, untimed, before the window.
	warmNames []string
	// minPasses is the fewest passes a window runs (at least one).
	minPasses int
}

// defaultPaperConfig is every registry kernel at the paper's sizes on
// target D. Kernel inputs are fixed, so the workload takes no seed.
// Warm-up runs the kernels whose full-scale run is short, which touches
// every engine path without costing a whole pass.
func defaultPaperConfig() paperConfig {
	return paperConfig{
		params: workloads.Full(),
		names:  workloads.Names(),
		target: config.ConfigD(),
		warmNames: []string{"memset", "memcpy", "filter", "filmdet", "majority_sel", "mp3_synth",
			"blockwalk", "blockwalk_pf", "upconv", "upconv_pf", "cabac_opt_p"},
		minPasses: 3,
	}
}

// kernel is one workload compiled for the target: the unit the paper
// workload runs, and the serve workload replays.
type kernel struct {
	spec *workloads.Spec
	art  *runner.Artifact
}

// kernelCounts are the simulated results of one kernel run.
type kernelCounts struct {
	instrs, cycles, translated, hits int64
}

// paperBench runs the kernels one at a time from artifacts compiled in
// set-up; the timed path of one op is Init → Load → Run → Check.
type paperBench struct {
	cfg     paperConfig
	kernels []kernel
	byName  map[string]*kernel
	want    []*kernelCounts // each kernel's first measured run; later runs must match
}

func newPaper(cfg paperConfig) *paperBench { return &paperBench{cfg: cfg} }

func (b *paperBench) setUp() error {
	ks := make([]kernel, 0, len(b.cfg.names))
	for _, name := range b.cfg.names {
		w, err := workloads.ByName(name, b.cfg.params)
		if err != nil {
			return err
		}
		art, err := runner.CompileWorkload(w, b.cfg.target)
		if err != nil {
			return err
		}
		ks = append(ks, kernel{spec: w, art: art})
	}
	b.kernels = ks
	b.byName = make(map[string]*kernel, len(ks))
	for i := range ks {
		b.byName[b.cfg.names[i]] = &ks[i]
	}
	return nil
}

func (b *paperBench) warmUp(ctx context.Context) error {
	for _, name := range b.cfg.warmNames {
		k, ok := b.byName[name]
		if !ok {
			continue
		}
		if _, err := k.run(ctx, b.cfg.target, nil); err != nil {
			return err
		}
	}
	return nil
}

// run executes one kernel from its precompiled artifact and checks its
// output against the workload's Go reference.
func (k *kernel) run(ctx context.Context, t config.Target, o *opTrace) (kernelCounts, error) {
	w := k.spec
	img := mem.NewFunc()
	var err error
	if w.Init != nil {
		o.layer("workloads.init", func() { err = w.Init(img) })
		if err != nil {
			return kernelCounts{}, fmt.Errorf("%s: init: %w", w.Name, err)
		}
	}
	var ld *runner.Loaded
	o.layer("tmsim.load", func() {
		ld = runner.Load(k.art, img)
		for v, val := range w.Args {
			ld.Machine.SetReg(v, val)
		}
	})
	o.layer("tmsim.run", func() { err = ld.RunContext(ctx) })
	if err != nil {
		return kernelCounts{}, fmt.Errorf("%s on %s: %w", w.Name, t.Name, err)
	}
	if w.Check != nil {
		o.layer("workloads.check", func() { err = w.Check(img) })
		if err != nil {
			return kernelCounts{}, fmt.Errorf("%s on %s: output check failed: %w", w.Name, t.Name, err)
		}
	}
	bc := ld.BlockCacheStats()
	st := &ld.Machine.Stats
	return kernelCounts{instrs: st.Instrs, cycles: st.Cycles, translated: bc.Translated, hits: bc.Hits}, nil
}

// measure runs whole passes over the kernels — at least minPasses, and
// until d has elapsed — so every window weighs the kernels alike. An op
// is one kernel run. Throughput comes from each kernel's median time
// over the passes, so a burst of host noise that slows one run of a
// kernel does not move it; the latency is that of a whole pass, the
// paper bench's wall time.
func (b *paperBench) measure(ctx context.Context, d time.Duration, rec *recorder) (*window, error) {
	w := &window{pass: passCounts{haveCycles: true, haveCache: true}}
	if b.want == nil {
		b.want = make([]*kernelCounts, len(b.kernels))
	}
	times := make([][]float64, len(b.kernels))
	start := time.Now()
	for pass := 0; pass < max(b.cfg.minPasses, 1) || time.Since(start) < d; pass++ {
		passStart := time.Now()
		for i := range b.kernels {
			k := &b.kernels[i]
			w.attempted++
			o := rec.startOp(k.spec.Name)
			t0 := time.Now()
			c, err := k.run(ctx, b.cfg.target, o)
			t := time.Since(t0)
			o.end()
			switch {
			case err != nil:
				w.fail("%v", err)
				continue
			case b.want[i] == nil:
				b.want[i] = &c
			case c != *b.want[i]:
				w.fail("%s: simulated counts %+v differ from the first run %+v", k.spec.Name, c, *b.want[i])
				continue
			}
			times[i] = append(times[i], t.Seconds())
			w.simInstrs += c.instrs
		}
		w.latMS = append(w.latMS, float64(time.Since(passStart))/1e6)
		w.mark(time.Since(passStart))
	}
	var passSecs float64
	var passInstrs int64
	for i, ts := range times {
		if len(ts) > 0 {
			passSecs += median(ts)
			passInstrs += b.want[i].instrs
		}
	}
	if passSecs > 0 {
		w.opsPerS = float64(len(b.kernels)) / passSecs
		w.minstrPerS = float64(passInstrs) / passSecs / 1e6
	}
	w.elapsed = time.Since(start)
	for _, c := range b.want {
		if c != nil {
			w.pass.instrs += c.instrs
			w.pass.cycles += c.cycles
			w.pass.translated += c.translated
			w.pass.hits += c.hits
		}
	}
	if rec != nil {
		w.layers = map[string]float64{}
		rec.layerMetrics(w.attempted, w.layers)
		if run := rec.sum("tmsim.run"); run.ns > 0 {
			w.layers["tmsim.minstr_per_s"] = float64(w.simInstrs) / (float64(run.ns) / 1e9) / 1e6
		}
		w.pass.metrics(w.layers)
	}
	return w, nil
}

func (b *paperBench) close() {}
