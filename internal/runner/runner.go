// Package runner is the execution engine behind the public tm3270 API:
// it turns (workload, target) pairs into results, one at a time via
// RunContext or as a concurrent batch via Batch.
//
// The design is instance-scoped throughout — every run gets its own
// memory image, machine and telemetry sink, and compile artifacts are
// immutable — so any number of runs may proceed concurrently without
// shared mutable state. Batch adds bounded parallelism, a compile-
// artifact cache memoizing Compile by (workload, params, target), and
// deterministic ordered aggregation: results come back in job order,
// making a parallel batch byte-identical to a serial one.
package runner

import (
	"context"
	"fmt"
	"time"

	"tm3270/internal/config"
	"tm3270/internal/mem"
	"tm3270/internal/power"
	"tm3270/internal/telemetry"
	"tm3270/internal/tmsim"
	"tm3270/internal/workloads"
)

// Telemetry is the instance-scoped observability sink of one run. The
// caller arms the inputs (an event trace, the profile switch); the run
// fills the outputs — even when the run traps, so the events leading to
// a fault stay inspectable. One sink serves exactly one run: sharing a
// sink between concurrent runs is a data race by construction, which is
// precisely what the per-run injection exists to prevent.
type Telemetry struct {
	// Trace, when non-nil, receives the structured event trace
	// (allocate it with telemetry.NewTrace).
	Trace *telemetry.Trace

	// EnableProfile allocates the per-PC cycle-attribution profile.
	EnableProfile bool

	// Profile is the cycle-attribution profile (output; nil unless
	// EnableProfile was set).
	Profile *telemetry.Profile

	// Registry is the machine's unified counter registry (output).
	Registry *telemetry.Registry

	// Snapshot is the point-in-time counter dump taken when the run
	// finished or trapped (output).
	Snapshot telemetry.Snapshot

	// VerifyStart and VerifyEnd bracket the static verification a run
	// with Verify set performs before execution, and VerifyDiags counts
	// its diagnostics (outputs; zero times when the run did not verify).
	VerifyStart, VerifyEnd time.Time
	VerifyDiags            int
}

// Options collects the per-run knobs. The zero value is a plain
// checked run; functional options (With*) adjust it.
type Options struct {
	// Watchdog bounds issued instructions (0 = simulator default).
	Watchdog int64
	// Deadline bounds wall-clock execution time (0 = none).
	Deadline time.Duration
	// StrictMem traps unmapped loads and null-page stores.
	StrictMem bool
	// Verify gates execution on the whole-program static verifier.
	Verify bool
	// Engine selects the execution engine. The zero value is the
	// predecoded block-cache fast path (with automatic interpreter
	// fallback when a run arms features it does not support);
	// tmsim.EngineInterp forces the reference interpreter.
	Engine tmsim.Engine
	// Telemetry, when non-nil, is the run's observability sink.
	Telemetry *Telemetry
	// Artifact, when non-nil, skips compilation and loads the machine
	// from this precompiled build product (the batch cache path). The
	// artifact must come from the same workload construction — virtual
	// register numbering is deterministic, so any spec built by the
	// same name and params matches.
	Artifact *Artifact
	// Setup, when non-nil, runs against the constructed machine before
	// execution (issue tracing, fault injection).
	Setup func(*tmsim.Machine)
}

// Option is one functional run option.
type Option func(*Options)

// WithWatchdog bounds the run to n issued instructions.
func WithWatchdog(n int64) Option { return func(o *Options) { o.Watchdog = n } }

// WithDeadline bounds the run to a wall-clock budget.
func WithDeadline(d time.Duration) Option { return func(o *Options) { o.Deadline = d } }

// WithStrictMem traps unmapped loads and null-page stores.
func WithStrictMem(on bool) Option { return func(o *Options) { o.StrictMem = on } }

// WithVerify statically verifies the decoded binary before the first
// cycle executes and refuses the run on any error-severity diagnostic.
func WithVerify(on bool) Option { return func(o *Options) { o.Verify = on } }

// WithEngine selects the execution engine (tmsim.EngineBlockCache, the
// default, or tmsim.EngineInterp). The block-cache engine falls back to
// the interpreter automatically when the run arms features it does not
// support; Result.Engine reports what actually executed.
func WithEngine(e tmsim.Engine) Option { return func(o *Options) { o.Engine = e } }

// WithTelemetry attaches a per-run observability sink.
func WithTelemetry(t *Telemetry) Option { return func(o *Options) { o.Telemetry = t } }

// WithArtifact runs a precompiled artifact instead of compiling.
func WithArtifact(a *Artifact) Option { return func(o *Options) { o.Artifact = a } }

// WithMachineSetup registers a pre-run hook on the machine.
func WithMachineSetup(f func(*tmsim.Machine)) Option { return func(o *Options) { o.Setup = f } }

// Result is the outcome of one run.
type Result struct {
	Workload string
	Target   config.Target
	Stats    tmsim.Stats
	Machine  *tmsim.Machine
	Artifact *Artifact
	// Engine is the engine that actually executed the run — the
	// requested one, or the interpreter after an automatic fallback.
	Engine tmsim.Engine
}

// Seconds returns the wall-clock time of the run at the target's
// frequency.
func (r *Result) Seconds() float64 { return r.Stats.Seconds(&r.Target) }

// CodeBytes returns the encoded size of the compiled kernel.
func (r *Result) CodeBytes() int { return r.Artifact.CodeBytes() }

// SchedInstrs returns the static VLIW instruction count.
func (r *Result) SchedInstrs() int { return r.Artifact.SchedInstrs() }

// OPIStatic returns the static operation density of the schedule.
func (r *Result) OPIStatic() float64 { return r.Artifact.OPIStatic() }

// Activity extracts the power-model operating point of the run.
func (r *Result) Activity() power.Activity {
	s := &r.Stats
	a := power.Activity{}
	if s.Cycles > 0 {
		a.Utilization = float64(s.Instrs) / float64(s.Cycles)
		a.BusBytesPerCyc = float64(r.Machine.BIU.TotalBytes()) / float64(s.Cycles)
	}
	if s.Instrs > 0 {
		a.OPI = s.OPI()
		a.MemOpsPerInstr = float64(s.LoadOps+s.StoreOps) / float64(s.Instrs)
	}
	return a
}

// RunContext compiles (or loads) w for t, executes it on the machine
// model under ctx, validates the outputs against the workload's
// reference check and returns the result.
//
// When the failure happens at or after execution (a trap, a canceled
// context, a failed output check), the returned Result is still
// populated alongside the error, so diagnostics — the machine state,
// the artifact, an armed telemetry sink — remain inspectable. Failures
// before a machine exists (compile, verify, init) return a nil Result.
func RunContext(ctx context.Context, w *workloads.Spec, t config.Target, opts ...Option) (*Result, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}

	art := o.Artifact
	if art == nil {
		var err error
		art, err = CompileWorkload(w, t)
		if err != nil {
			return nil, err
		}
	}
	if o.Verify {
		start := time.Now()
		rep, err := art.VerifyStatic(&t, art.VerifyOptions(w))
		if tel := o.Telemetry; tel != nil {
			tel.VerifyStart, tel.VerifyEnd = start, time.Now()
			if rep != nil {
				tel.VerifyDiags = len(rep.Diags)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", w.Name, t.Name, err)
		}
	}

	image := mem.NewFunc()
	if w.Init != nil {
		if err := w.Init(image); err != nil {
			return nil, fmt.Errorf("%s on %s: init: %w", w.Name, t.Name, err)
		}
	}

	ld := loadWith(art, image, &o)
	m := ld.Machine
	for v, val := range w.Args {
		m.SetReg(v, val)
	}

	res := &Result{Workload: w.Name, Target: t, Machine: m, Artifact: art}
	runErr := ld.RunContext(ctx)
	res.Stats = m.Stats
	res.Engine = m.EngineUsed
	if o.Telemetry != nil {
		o.Telemetry.Registry = m.Registry()
		o.Telemetry.Snapshot = o.Telemetry.Registry.Snapshot()
	}
	if runErr != nil {
		return res, fmt.Errorf("%s on %s: %w", w.Name, t.Name, runErr)
	}
	if w.Check != nil {
		// The check judges the image the run left behind: an injector
		// armed through Setup must not tap the check's own loads.
		image.Fault = nil
		if err := w.Check(image); err != nil {
			return res, fmt.Errorf("%s on %s: output check failed: %w", w.Name, t.Name, err)
		}
	}
	return res, nil
}
