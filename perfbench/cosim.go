package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"tm3270/internal/campaign"
	"tm3270/internal/config"
	"tm3270/internal/cosim"
	"tm3270/internal/encode"
	"tm3270/internal/mem"
	"tm3270/internal/prog"
	"tm3270/internal/progen"
	"tm3270/internal/refmodel"
	"tm3270/internal/regalloc"
	"tm3270/internal/runner"
	"tm3270/internal/sched"
	"tm3270/internal/tmsim"
	"tm3270/internal/workloads"
)

// cosimConfig sizes the conformance-campaign workload.
type cosimConfig struct {
	params        workloads.Params
	names         []string // shipped workloads co-simulated on every target
	seeds         int      // generated programs per target
	seedBase      int64    // generated programs use seeds seedBase+1 … seedBase+seeds
	genOps        int
	lockstepEvery int
	targets       []config.Target
	workers       int
}

// defaultCosimConfig is cosim.CampaignConfig's default matrix — every
// shipped workload at small scale plus 500 generated 64-op programs,
// on A–D, every 16th generated unit in lockstep — run on every CPU.
// The seed shifts the generated programs' seed range.
func defaultCosimConfig(seed int64) cosimConfig {
	return cosimConfig{
		params:        workloads.Small(),
		names:         workloads.Names(),
		seeds:         500,
		seedBase:      cosimSeedBase(seed, 500),
		genOps:        64,
		lockstepEvery: 16,
		targets:       []config.Target{config.ConfigA(), config.ConfigB(), config.ConfigC(), config.ConfigD()},
		workers:       0, // GOMAXPROCS
	}
}

// cosimSeedBase maps a benchmark seed onto a disjoint progen seed
// range of n programs: seed s covers (s mod 1e9)·n+1 … (s mod 1e9)·n+n.
func cosimSeedBase(seed int64, n int) int64 {
	s := seed % 1_000_000_000
	if s < 0 {
		s = -s
	}
	return s * int64(n)
}

// units enumerates the campaign matrix in the order of
// cosim.CampaignConfig.UnitMatrix, with the generated seeds shifted.
func (c *cosimConfig) units() []campaign.Unit {
	var units []campaign.Unit
	for _, name := range c.names {
		for i := range c.targets {
			units = append(units, campaign.Unit{Kind: cosim.KindWorkload, Name: name, Target: c.targets[i].Name,
				Engine: tmsim.EngineBlockCache.String()})
		}
	}
	n := 0
	for s := c.seedBase + 1; s <= c.seedBase+int64(c.seeds); s++ {
		for i := range c.targets {
			u := campaign.Unit{Kind: cosim.KindGenerated, Seed: s, Ops: c.genOps, Target: c.targets[i].Name,
				Engine: tmsim.EngineBlockCache.String()}
			u.Lockstep = c.lockstepEvery > 0 && n%c.lockstepEvery == 0
			n++
			units = append(units, u)
		}
	}
	return units
}

// cosimBench runs the whole campaign into a fresh store per pass.
type cosimBench struct {
	cfg     cosimConfig
	units   []campaign.Unit
	targets map[string]*config.Target
	spec    string
	want    *passCounts // the warm-up pass; every later pass must match
}

func newCosim(cfg cosimConfig) *cosimBench { return &cosimBench{cfg: cfg} }

// setUp builds the unit matrix and the store fingerprint. The stores
// themselves are opened per pass, inside the window.
func (b *cosimBench) setUp() error {
	b.units = b.cfg.units()
	b.targets = make(map[string]*config.Target, len(b.cfg.targets))
	for i := range b.cfg.targets {
		b.targets[b.cfg.targets[i].Name] = &b.cfg.targets[i]
	}
	p := b.cfg.params
	b.spec = (&cosim.CampaignConfig{Params: &p}).Spec()
	return nil
}

// warmUp runs one whole campaign; its simulated counts become the
// reference every later pass must reproduce.
func (b *cosimBench) warmUp(ctx context.Context) error {
	var w window
	pc, err := b.pass(ctx, &w, nil)
	if err != nil {
		return err
	}
	if w.failed > 0 {
		return fmt.Errorf("warm-up campaign: %s", strings.Join(w.failures, "; "))
	}
	if b.want != nil {
		if err := samePass(*b.want, pc); err != nil {
			return fmt.Errorf("warm-up campaign: %w", err)
		}
	}
	b.want = &pc
	return nil
}

func (b *cosimBench) measure(ctx context.Context, d time.Duration, rec *recorder) (*window, error) {
	w := &window{}
	var unitNS, wallNS int64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		t0 := time.Now()
		pc, err := b.pass(ctx, w, rec)
		if err != nil {
			return nil, err
		}
		wallNS += int64(time.Since(t0))
		w.simInstrs += pc.instrs
		w.mark(time.Since(t0))
		if b.want != nil {
			if err := samePass(*b.want, pc); err != nil {
				w.fail("campaign pass %d: %v", pass, err)
			}
		}
		w.pass = pc
	}
	w.elapsed = time.Since(start)
	w.rateFromSlices()
	if rec != nil {
		for _, l := range w.latMS {
			unitNS += int64(l * 1e6)
		}
		w.layers = map[string]float64{}
		rec.layerMetrics(w.attempted, w.layers)
		workers := b.cfg.workers
		if workers <= 0 {
			workers = 1
		}
		w.layers["campaign.overhead.ms"] = perOpMS(wallNS*int64(workers)-unitNS, w.attempted)
		w.layers["campaign.units"] = float64(w.pass.units)
		w.layers["sched.schedule.allocs"] = float64(rec.sum("sched.schedule").allocs) / float64(w.attempted)
		if run := rec.sum("tmsim.run"); run.ns > 0 {
			w.layers["tmsim.minstr_per_s"] = float64(w.simInstrs) / (float64(run.ns) / 1e9) / 1e6
		}
		w.pass.metrics(w.layers)
	}
	return w, nil
}

// pass runs the campaign once into a fresh store and returns its
// simulated counts. Units count as ops of w; a divergence fails its op.
func (b *cosimBench) pass(ctx context.Context, w *window, rec *recorder) (passCounts, error) {
	dir, err := os.MkdirTemp("", "perfbench-cosim-")
	if err != nil {
		return passCounts{}, err
	}
	defer os.RemoveAll(dir)
	st, err := campaign.Open(dir, "1of1", b.spec)
	if err != nil {
		return passCounts{}, err
	}
	defer st.Close()

	var mu sync.Mutex
	pc := passCounts{haveCycles: rec != nil, haveCache: rec != nil}
	out, err := campaign.Run(ctx, campaign.Config{Workers: b.cfg.workers, Store: st}, b.units,
		func(ctx context.Context, u campaign.Unit) (campaign.Result, error) {
			o := rec.startOp(u.String())
			t0 := time.Now()
			var r campaign.Result
			var c kernelCounts
			var err error
			if o == nil {
				r, err = b.runUnit(u)
			} else {
				r, c, err = b.runUnitTraced(u, o)
			}
			lat := time.Since(t0)
			o.end()
			mu.Lock()
			defer mu.Unlock()
			w.attempted++
			if err == nil && r.Bad {
				w.fail("%s: %s: %s", u, r.Status, r.Detail)
			} else if err == nil {
				w.latMS = append(w.latMS, float64(lat)/1e6)
			}
			pc.cycles += c.cycles
			pc.translated += c.translated
			pc.hits += c.hits
			return r, err
		})
	if err != nil {
		return passCounts{}, err
	}
	agg, err := out.Aggregate.MarshalJSONDeterministic()
	if err != nil {
		return passCounts{}, err
	}
	sum := sha256.Sum256(agg)
	pc.aggregate = hex.EncodeToString(sum[:])
	pc.instrs = out.Aggregate.Instrs
	pc.units = int64(out.Aggregate.Units)
	return pc, nil
}

// runUnit is the production path: cosim's own per-unit runners, as
// the campaign engine's cosim matrix runs them.
func (b *cosimBench) runUnit(u campaign.Unit) (campaign.Result, error) {
	t := b.targets[u.Target]
	opts := cosim.Options{Lockstep: u.Lockstep}
	var res *cosim.Result
	var err error
	switch u.Kind {
	case cosim.KindWorkload:
		var w *workloads.Spec
		if w, err = workloads.ByName(u.Name, b.cfg.params); err == nil {
			res, err = cosim.RunWorkload(w, *t, opts)
		}
	case cosim.KindGenerated:
		res, err = cosim.RunGenerated(u.Seed, *t, u.Ops, opts)
	default:
		err = fmt.Errorf("unknown unit kind %q", u.Kind)
	}
	if err != nil {
		return campaign.Result{}, err
	}
	return storedResult(res), nil
}

// storedResult flattens a cosim result into its campaign record, as
// the cosim campaign does: divergences carry their kind in the status.
func storedResult(res *cosim.Result) campaign.Result {
	if res == nil {
		return campaign.Result{Status: cosim.StatusSkipped}
	}
	out := campaign.Result{Status: cosim.StatusOK, Instrs: res.Instrs}
	if res.Div != nil {
		out.Status = "divergent:" + res.Div.Kind
		out.Detail = strings.TrimPrefix(res.Div.String(), res.Div.Kind+": ")
		out.Bad = true
	}
	return out
}

// runUnitTraced re-drives one unit through the layer functions cosim
// calls — progen, the compile pipeline, decode, the pipeline model and
// the reference model — with a span around each call. Its verdict
// covers the final-state diff (trap agreement, retired count, register
// file, memory) and, for lockstep units, the per-instruction register
// diff; the campaign aggregate it produces must equal the production
// path's, which is checked.
func (b *cosimBench) runUnitTraced(u campaign.Unit, o *opTrace) (campaign.Result, kernelCounts, error) {
	t := b.targets[u.Target]
	var p *prog.Program
	var image *mem.Func
	var w *workloads.Spec
	switch u.Kind {
	case cosim.KindWorkload:
		var err error
		if w, err = workloads.ByName(u.Name, b.cfg.params); err != nil {
			return campaign.Result{}, kernelCounts{}, err
		}
		p = w.Prog
	case cosim.KindGenerated:
		o.layer("progen.generate", func() {
			p = progen.Generate(progen.Config{Seed: u.Seed, Target: t, Ops: u.Ops})
		})
	default:
		return campaign.Result{}, kernelCounts{}, fmt.Errorf("unknown unit kind %q", u.Kind)
	}
	art, err := compileTraced(p, *t, o)
	if err != nil {
		var se *runner.ScheduleError
		if u.Kind == cosim.KindWorkload && errors.As(err, &se) {
			return storedResult(nil), kernelCounts{}, nil
		}
		return campaign.Result{}, kernelCounts{}, fmt.Errorf("%s: %w", u, err)
	}
	refImage := refmodel.NewMem()
	if w != nil {
		image = mem.NewFunc()
		if w.Init != nil {
			o.layer("workloads.init", func() { err = w.Init(image) })
			if err != nil {
				return campaign.Result{}, kernelCounts{}, fmt.Errorf("%s: init: %w", u, err)
			}
		}
		refImage = refImageOf(image)
	}
	var dec []encode.DecInstr
	o.layer("encode.decode", func() {
		dec, err = encode.Decode(art.Enc.Bytes, tmsim.CodeBase, len(art.Code.Instrs))
	})
	if err != nil {
		return campaign.Result{}, kernelCounts{}, fmt.Errorf("%s: image does not decode: %w", u, err)
	}
	var sim *tmsim.Machine
	o.layer("tmsim.load", func() { sim = runner.Load(art, image).Machine })
	var ref *refmodel.Machine
	o.layer("refmodel.run", func() { ref = refmodel.New(dec, *t, refImage) })
	if w != nil {
		for v, val := range w.Args {
			r := art.RegMap.Reg(v)
			sim.SetPhysReg(r, val)
			ref.SetReg(r, val)
		}
	}

	var div string
	var simErr error
	if u.Lockstep {
		// The reference model steps inside the pipeline model's
		// per-instruction hook, so lockstep time lands in tmsim.run.
		o.layer("tmsim.run", func() { div, simErr = lockstep(sim, ref, dec) })
	} else {
		o.layer("tmsim.run", func() { simErr = sim.RunContext(context.Background()) })
	}
	var refTrap *refmodel.Trap
	o.layer("refmodel.run", func() { refTrap = ref.Run() })
	if div == "" {
		div = diffFinal(sim, simErr, ref, refTrap)
	}
	bc := sim.BlockCacheStats()
	c := kernelCounts{instrs: sim.Stats.Instrs, cycles: sim.Stats.Cycles, translated: bc.Translated, hits: bc.Hits}
	r := campaign.Result{Status: cosim.StatusOK, Instrs: sim.Stats.Instrs}
	if div != "" {
		r = campaign.Result{Status: "divergent:traced", Detail: div, Instrs: sim.Stats.Instrs, Bad: true}
	}
	return r, c, nil
}

// compileTraced is runner.Compile with a span around each stage.
func compileTraced(p *prog.Program, t config.Target, o *opTrace) (*runner.Artifact, error) {
	var code *sched.Code
	var err error
	o.layerAllocs("sched.schedule", func() { code, err = sched.Schedule(p, t) })
	if err != nil {
		return nil, &runner.ScheduleError{Err: err}
	}
	o.layer("sched.verify", func() { err = sched.Verify(code) })
	if err != nil {
		return nil, err
	}
	var rm *regalloc.Map
	o.layer("regalloc.allocate", func() { rm, err = regalloc.Allocate(p) })
	if err != nil {
		return nil, err
	}
	var enc *encode.Encoded
	o.layer("encode.encode", func() { enc, err = encode.Encode(code, rm, tmsim.CodeBase) })
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	return &runner.Artifact{Code: code, RegMap: rm, Enc: enc}, nil
}

// refImageOf copies an initial image into the reference model's memory,
// keeping per-byte write validity.
func refImageOf(f *mem.Func) *refmodel.Mem {
	m := refmodel.NewMem()
	for _, pa := range f.PageAddrs() {
		for i := uint32(0); i < 1<<12; i++ {
			if f.Defined(pa+i, 1) {
				m.SetByte(pa+i, f.ByteAt(pa+i))
			}
		}
	}
	return m
}

// lockstep runs the pipeline model with the reference model stepping
// alongside, diffing the register file at every instruction boundary.
func lockstep(sim *tmsim.Machine, ref *refmodel.Machine, dec []encode.DecInstr) (string, error) {
	var div string
	sim.InstrHook = func(cycle, issue int64, idx int) {
		if div != "" {
			return
		}
		if ref.Done() || ref.Issue() != issue || ref.Index() != idx {
			div = fmt.Sprintf("lockstep-flow at issue %d", issue)
			return
		}
		ref.CommitDue()
		if sim.RegSnapshot() != ref.Regs() {
			div = fmt.Sprintf("lockstep-reg at issue %d, pc %#x", issue, dec[idx].Addr)
			return
		}
		ref.Step()
	}
	err := sim.RunContext(context.Background())
	return div, err
}

// diffFinal compares both models' architecturally visible end state.
// Two runs that both trap agree: their partial state is undefined.
func diffFinal(sim *tmsim.Machine, simErr error, ref *refmodel.Machine, refTrap *refmodel.Trap) string {
	switch {
	case (simErr != nil) != (refTrap != nil):
		return fmt.Sprintf("trap: pipeline %v, reference %v", simErr, refTrap)
	case simErr != nil:
		return ""
	case sim.Stats.Instrs != ref.Issue():
		return fmt.Sprintf("instrs: %d vs %d", sim.Stats.Instrs, ref.Issue())
	case sim.RegSnapshot() != ref.Regs():
		return "reg: register files differ"
	}
	pages := map[uint32]bool{}
	for _, pa := range sim.Mem.PageAddrs() {
		pages[pa] = true
	}
	for _, pa := range ref.Mem.PageAddrs() {
		pages[pa] = true
	}
	for pa := range pages {
		for i := uint32(0); i < 1<<12; i++ {
			if sim.Mem.ByteAt(pa+i) != ref.Mem.ByteAt(pa+i) {
				return fmt.Sprintf("mem: byte %#x differs", pa+i)
			}
		}
	}
	return ""
}

func (b *cosimBench) close() {}
