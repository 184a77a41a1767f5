package faults

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"tm3270/internal/campaign"
	"tm3270/internal/config"
	"tm3270/internal/mem"
	"tm3270/internal/prefetch"
	"tm3270/internal/prog"
	"tm3270/internal/runner"
	"tm3270/internal/tmsim"
	"tm3270/internal/workloads"
)

// KindFault is the campaign unit kind of the injection campaign: one
// seeded fault-injected run of one workload. The unit carries the
// workload in Name, the injector seed in Seed and the injector spec,
// in Spec.String form, in Inject.
const KindFault = "fault"

// Outcome classifies one fault-injected run.
type Outcome int

const (
	// Masked: the run completed, the output check passed and memory
	// matches the fault-free reference everywhere outside the injection
	// sites — the fault never propagated.
	Masked Outcome = iota
	// DetectedTrap: the machine raised a structured trap (or another
	// execution error) instead of running on with corrupted state.
	DetectedTrap
	// DetectedDivergence: the run completed but its outputs diverge —
	// the workload's own check failed, or memory differs from the
	// sequential reference beyond the injection sites.
	DetectedDivergence
)

// String names the outcome for campaign reports.
func (o Outcome) String() string {
	switch o {
	case DetectedTrap:
		return "detected-trap"
	case DetectedDivergence:
		return "detected-divergence"
	}
	return "masked"
}

// RunReport is the classification of one seeded run.
type RunReport struct {
	Workload string
	Spec     Spec
	Seed     int64
	Outcome  Outcome
	Detail   string // trap summary or divergence description
	Injected int    // number of fault events the injector fired
}

// CampaignConfig parameterizes a fault campaign. Zero fields take the
// documented defaults.
type CampaignConfig struct {
	// Workloads are registry names (default: memset, memcpy, filter,
	// blockwalk_pf — the last so prefetch-path injectors have traffic).
	Workloads []string
	// Specs are the injectors to sweep (default: bitflip, loadflip,
	// lineflip, droppf).
	Specs []Spec
	// Seeds is the number of seeds per (workload, injector) pair
	// (default 13: 4 workloads x 4 injectors x 13 seeds = 208 runs).
	Seeds int
	// Params sizes the workloads (default workloads.Small()).
	Params *workloads.Params
	// Target is the processor configuration (default config.TM3270()).
	Target *config.Target
	// MaxInstrs is the per-run instruction watchdog (default 200M).
	MaxInstrs int64
	// Deadline is the per-run wall-clock bound (default 30s).
	Deadline time.Duration
}

func (c *CampaignConfig) fill() {
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"memset", "memcpy", "filter", "blockwalk_pf"}
	}
	if len(c.Specs) == 0 {
		c.Specs = []Spec{
			{Kind: BitFlip},
			{Kind: LoadFlip, Rate: 0.002},
			{Kind: LineFlip, Rate: 0.05},
			{Kind: DropPrefetch, Rate: 0.25},
		}
	}
	if c.Seeds <= 0 {
		c.Seeds = 13
	}
	if c.Params == nil {
		p := workloads.Small()
		c.Params = &p
	}
	if c.Target == nil {
		t := config.TM3270()
		c.Target = &t
	}
	if c.MaxInstrs <= 0 {
		c.MaxInstrs = 200_000_000
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
}

// units enumerates the campaign: workload × injector × seed, seeds
// innermost and numbered from 1.
func (c *CampaignConfig) units() []campaign.Unit {
	var units []campaign.Unit
	for _, name := range c.Workloads {
		for _, spec := range c.Specs {
			for s := int64(1); s <= int64(c.Seeds); s++ {
				units = append(units, campaign.Unit{
					Kind: KindFault, Name: name, Target: c.Target.Name,
					Seed: s, Inject: spec.String(),
				})
			}
		}
	}
	return units
}

// InjectionResult aggregates a fault campaign.
type InjectionResult struct {
	// Reports holds one classification per run, in matrix order.
	Reports []RunReport
	// Counts tallies the reports by outcome.
	Counts [3]int
}

// Runs returns the total number of classified runs.
func (r *InjectionResult) Runs() int { return len(r.Reports) }

// PrintRuns renders one classification line per run.
func (r *InjectionResult) PrintRuns(w io.Writer) {
	for _, rep := range r.Reports {
		fmt.Fprintf(w, "%-14s %-22s seed %-3d %-19s events=%-3d %s\n",
			rep.Workload, rep.Spec, rep.Seed, rep.Outcome, rep.Injected, rep.Detail)
	}
}

// PrintSummary renders the aggregate counts.
func (r *InjectionResult) PrintSummary(w io.Writer) {
	fmt.Fprintf(w, "fault campaign: %d runs, %d detected-trap, %d detected-divergence, %d masked\n",
		r.Runs(), r.Counts[DetectedTrap], r.Counts[DetectedDivergence], r.Counts[Masked])
}

// RunCampaign executes Seeds seeded runs of every (workload, injector)
// pair on the campaign engine and classifies each as detected (trap or
// divergence against the sequential reference) or masked. Every run is
// bounded by the instruction watchdog and the wall-clock deadline, and
// internal panics surface as traps — a campaign never hangs and never
// panics.
func RunCampaign(cfg CampaignConfig) (*InjectionResult, error) {
	cfg.fill()
	specs := make(map[string]Spec, len(cfg.Specs))
	for _, s := range cfg.Specs {
		specs[s.String()] = s
	}
	r := &injectionRunner{cfg: &cfg, specs: specs}
	res := &InjectionResult{}
	_, err := campaign.Run(context.Background(), campaign.Config{
		Reduce: func(_ int, u campaign.Unit, ur campaign.Result) {
			rep := RunReport{Workload: u.Name, Spec: specs[u.Inject], Seed: u.Seed}
			fmt.Sscanf(ur.Detail, "events=%d", &rep.Injected)
			_, rep.Detail, _ = strings.Cut(ur.Detail, " ")
			for o := Masked; o <= DetectedDivergence; o++ {
				if ur.Status == o.String() {
					rep.Outcome = o
				}
			}
			res.Reports = append(res.Reports, rep)
			res.Counts[rep.Outcome]++
		},
	}, cfg.units(), r.Run)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	return res, nil
}

// injTarget is one workload prepared for injection: the compiled
// artifact every run loads and the fault-free reference image every run
// is diffed against. Concurrent runs only read the reference.
type injTarget struct {
	art *runner.Artifact
	ref *mem.Func
}

// injectionRunner executes fault units, compiling each workload and
// computing its reference image once.
type injectionRunner struct {
	cfg     *CampaignConfig
	specs   map[string]Spec
	targets memo[*injTarget]
}

func (r *injectionRunner) target(name string) (*injTarget, error) {
	return r.targets.get(name, func() (*injTarget, error) {
		w, err := workloads.ByName(name, *r.cfg.Params)
		if err != nil {
			return nil, err
		}
		art, err := runner.CompileWorkload(w, *r.cfg.Target)
		if err != nil {
			return nil, err
		}
		ref, err := referenceImage(name, *r.cfg.Params)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
		return &injTarget{art: art, ref: ref}, nil
	})
}

// Run executes one seeded fault-injected run and classifies it. The
// result's Status is the Outcome's name and its Detail leads with
// "events=N", so the reduced report is a pure function of the result.
func (r *injectionRunner) Run(ctx context.Context, u campaign.Unit) (campaign.Result, error) {
	tgt, err := r.target(u.Name)
	if err != nil {
		return campaign.Result{}, err
	}
	// A fresh workload instance per run: Init/Check closures carry
	// per-image state.
	w, err := workloads.ByName(u.Name, *r.cfg.Params)
	if err != nil {
		return campaign.Result{}, err
	}
	inj := New(r.specs[u.Inject], u.Seed)
	res, runErr := runner.RunContext(ctx, w, *r.cfg.Target,
		runner.WithArtifact(tgt.art),
		runner.WithWatchdog(r.cfg.MaxInstrs),
		runner.WithDeadline(r.cfg.Deadline),
		runner.WithMachineSetup(inj.Arm))
	if res == nil {
		return campaign.Result{}, runErr
	}

	outcome, detail := Masked, ""
	var trap *tmsim.TrapError
	switch {
	case errors.As(runErr, &trap):
		outcome, detail = DetectedTrap, trap.Error()
	case runErr != nil:
		// Past execution, a non-trap error is the failed output check.
		outcome, detail = DetectedDivergence, runErr.Error()
	default:
		// The output check passed; any remaining difference against
		// the fault-free reference beyond the injection sites (and the
		// MMIO register block, which the reference interpreter stores
		// to as plain memory) still counts as a detected divergence.
		corrupted := inj.CorruptedAddrs()
		ignore := func(addr uint32) bool {
			return corrupted[addr] || prefetch.IsMMIO(addr)
		}
		addr, diff := mem.DiffIgnore(res.Machine.Mem, tgt.ref, ignore)
		if diff {
			outcome, detail = DetectedDivergence, fmt.Sprintf("memory diverges from reference at %#x", addr)
		}
	}
	return campaign.Result{
		Status: outcome.String(),
		Detail: strings.TrimSpace(fmt.Sprintf("events=%d %s", len(inj.Events), detail)),
	}, nil
}

// referenceImage runs the workload on the sequential reference
// interpreter and returns its final (fault-free) memory image.
func referenceImage(name string, p workloads.Params) (*mem.Func, error) {
	w, err := workloads.ByName(name, p)
	if err != nil {
		return nil, err
	}
	image := mem.NewFunc()
	if w.Init != nil {
		if err := w.Init(image); err != nil {
			return nil, err
		}
	}
	in := prog.NewInterp(w.Prog, image)
	in.MaxOps = 2_000_000_000
	for v, val := range w.Args {
		in.SetReg(v, val)
	}
	if err := in.Run(); err != nil {
		return nil, err
	}
	if w.Check != nil {
		if err := w.Check(image); err != nil {
			return nil, fmt.Errorf("fault-free reference fails its own check: %w", err)
		}
	}
	return image, nil
}

// memo caches one value per key, built on first use. The builder runs
// under the lock, so each key is built exactly once.
type memo[T any] struct {
	mu sync.Mutex
	m  map[string]T
}

func (c *memo[T]) get(key string, build func() (T, error)) (T, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[key]; ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	if c.m == nil {
		c.m = map[string]T{}
	}
	c.m[key] = v
	return v, nil
}
