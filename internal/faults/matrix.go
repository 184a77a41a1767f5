package faults

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"tm3270/internal/campaign"
	"tm3270/internal/config"
	"tm3270/internal/isa"
	"tm3270/internal/prefetch"
	"tm3270/internal/refmodel"
	"tm3270/internal/workloads"
)

// KindMutant is the campaign unit kind of the mutant matrix: one
// seeded single-bit image flip, classified statically and — if it
// survives the static gates — executed differentially under one
// machine seed.
const KindMutant = "mutant"

// Status values recorded for mutant units. The first four mirror
// StaticOutcome; detected/silent are the differential fates of
// statically-missed mutants.
const (
	StatusDetected = "detected"
	StatusSilent   = "silent"
)

// MatrixConfig scales a mutant × machine-seed matrix campaign. Zero
// fields take the documented defaults.
type MatrixConfig struct {
	// Workloads are registry names (default: the injection campaign's
	// set).
	Workloads []string
	// Mutants is the number of seeded single-bit image flips per
	// workload (default 64).
	Mutants int
	// Params sizes the workloads (default workloads.Small()).
	Params *workloads.Params
	// Target is the processor configuration (default config.TM3270()).
	Target *config.Target
	// MSeeds is the number of machine seeds per mutant, including the
	// unperturbed baseline seed 0 (default 5: baseline + 4 perturbed).
	MSeeds int
	// Workers bounds the worker pool (<=0 = GOMAXPROCS).
	Workers int
	// Store persists unit results for resume and sharding (optional).
	Store *campaign.Store
	// Shard selects this process's slice of the matrix (zero = all).
	Shard campaign.Shard
	// Counters receives campaign.* telemetry (optional).
	Counters *campaign.Counters
	// Progress is forwarded to the engine (optional).
	Progress func(done, total, cached int)
}

func (c *MatrixConfig) fill() {
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"memset", "memcpy", "filter", "blockwalk_pf"}
	}
	if c.Mutants <= 0 {
		c.Mutants = 64
	}
	if c.Params == nil {
		p := workloads.Small()
		c.Params = &p
	}
	if c.Target == nil {
		t := config.TM3270()
		c.Target = &t
	}
	if c.MSeeds <= 0 {
		c.MSeeds = 5
	}
}

// Spec is the matrix campaign's store fingerprint. Workloads, mutant
// counts and machine seeds live in the unit specs, so a stored
// campaign grows to more mutants or seeds by pure cache extension;
// the params and target shape unit results without appearing in them,
// so they bind the store.
func (c *MatrixConfig) Spec() string {
	c.fill()
	ph := sha256.Sum256([]byte(fmt.Sprintf("%+v|%+v", *c.Params, *c.Target)))
	return fmt.Sprintf("mutmatrix params=%s", hex.EncodeToString(ph[:6]))
}

// UnitMatrix enumerates the deterministic matrix: workload × mutant
// seed × machine seed, machine seeds innermost so one mutant's fates
// under every seed are adjacent in the aggregate.
func (c *MatrixConfig) UnitMatrix() []campaign.Unit {
	c.fill()
	var units []campaign.Unit
	for _, name := range c.Workloads {
		for mut := int64(1); mut <= int64(c.Mutants); mut++ {
			for ms := int64(0); ms < int64(c.MSeeds); ms++ {
				units = append(units, campaign.Unit{
					Kind: KindMutant, Name: name, Target: c.Target.Name,
					Mutant: mut, MSeed: ms,
				})
			}
		}
	}
	return units
}

// matrixRunner executes mutant units. Compiled targets are cached per
// workload and golden runs per (workload, machine seed); the cached
// values are immutable afterwards, so concurrent unit runs share them
// safely.
type matrixRunner struct {
	cfg     *MatrixConfig
	targets memo[*mutTarget]
	goldens memo[*golden]
}

func (r *matrixRunner) target(name string) (*mutTarget, error) {
	return r.targets.get(name, func() (*mutTarget, error) { return newMutTarget(name, r.cfg) })
}

func (r *matrixRunner) golden(mt *mutTarget, name string, mseed int64) (*golden, error) {
	return r.goldens.get(fmt.Sprintf("%s|%d", name, mseed), func() (*golden, error) {
		return mt.goldenRun(r.cfg.Target, mseed)
	})
}

// Run executes one (workload, mutant, machine-seed) unit: static
// classification first, then — for statically-missed mutants — a
// differential run against the golden run under the same machine
// seed. Silent results are the campaign's findings.
func (r *matrixRunner) Run(ctx context.Context, u campaign.Unit) (campaign.Result, error) {
	mt, err := r.target(u.Name)
	if err != nil {
		return campaign.Result{}, err
	}
	img := make([]byte, len(mt.enc))
	mt.mutate(u.Mutant, img)
	o, dec := mt.classify(img, r.cfg.Target)
	if o != StaticMissed {
		return campaign.Result{Status: o.String()}, nil
	}
	gold, err := r.golden(mt, u.Name, u.MSeed)
	if err != nil {
		return campaign.Result{}, err
	}
	mut := mt.newRef(dec, r.cfg.Target, u.MSeed)
	mut.MaxInstrs = gold.budget()
	detected := diffDetects(mut, gold)
	res := campaign.Result{Status: StatusDetected, Instrs: mut.Issue()}
	if !detected {
		res.Status = StatusSilent
		res.Bad = true
		res.Detail = fmt.Sprintf("indistinguishable from golden under machine seed %d", u.MSeed)
	}
	return res, nil
}

// golden is the reference-model outcome of the pristine binary. The
// prefetch MMIO bank is architected state (software reads it back), so
// it is part of the diffed outcome — mutants that misconfigure the
// prefetcher are corruptions even though no load or store moves.
type golden struct {
	issue int64
	regs  [isa.NumRegs]uint32
	mem   *refmodel.Mem
	mmio  [prefetch.NumRegions][3]uint32
}

// budget bounds a mutant run well past the golden instruction count;
// hitting it is itself a detectable difference, since the golden run
// terminates without tripping the watchdog.
func (g *golden) budget() int64 {
	return 4*g.issue + 10_000
}

// diffDetects runs the mutant and reports whether its outcome differs
// from the golden run in any architecturally visible way: a trap, a
// register, an MMIO register, a memory byte or the instruction count.
func diffDetects(mut *refmodel.Machine, gold *golden) bool {
	if t := mut.Run(); t != nil {
		return true // golden run is trap-free
	}
	if mut.Issue() != gold.issue {
		return true
	}
	if mut.Regs() != gold.regs {
		return true
	}
	if mut.MMIORegs() != gold.mmio {
		return true
	}
	return !memEqual(mut.Mem, gold.mem)
}

// memEqual compares two reference-model images over the union of their
// touched pages.
func memEqual(a, b *refmodel.Mem) bool {
	pages := map[uint32]bool{}
	for _, pa := range a.PageAddrs() {
		pages[pa] = true
	}
	for _, pa := range b.PageAddrs() {
		pages[pa] = true
	}
	for pa := range pages {
		for i := uint32(0); i < 1<<12; i++ {
			if a.ByteAt(pa+i) != b.ByteAt(pa+i) {
				return false
			}
		}
	}
	return true
}

// WorkloadRow is one workload's mutants: the static classification
// plus the baseline (machine seed 0) differential fate of the
// statically-missed ones.
type WorkloadRow struct {
	Workload string
	Mutants  int
	Static   [4]int // indexed by StaticOutcome
	Detected int    // missed mutants the seed-0 differential run catches
	Silent   int    // missed mutants indistinguishable from golden at seed 0
}

// SeedRow is one machine seed's differential outcome over the
// statically-missed mutants.
type SeedRow struct {
	MSeed    int64
	Detected int
	Silent   int
}

// MatrixResult aggregates a mutant × machine-seed campaign.
type MatrixResult struct {
	Mutants int // per workload
	MSeeds  int
	Static  [4]int // per-mutant static classification (seed-independent)
	Rows    []WorkloadRow
	Seeds   []SeedRow
	// Combined is the number of statically-missed mutants detected
	// under at least one machine seed.
	Combined int
	// Silent lists mutants ("workload#mutant") silent under every seed.
	Silent []string

	// Aggregate is the engine's deterministic reduction; Stats the
	// run-dependent totals.
	Aggregate *campaign.Aggregate
	Stats     campaign.Stats
}

// StaticRate is the fraction of decodable stream-changing mutants the
// static verifier flags: flagged / (flagged + missed). Rejected and
// masked mutants never reach the verifier.
func (r *MatrixResult) StaticRate() float64 {
	return r.rate(0)
}

// CombinedRate is the fraction of decodable stream-changing mutants
// caught by the static verifier or by the differential harness under
// any machine seed: (flagged + combined) / (flagged + missed), the
// same denominator as StaticRate.
func (r *MatrixResult) CombinedRate() float64 {
	return r.rate(r.Combined)
}

func (r *MatrixResult) rate(detected int) float64 {
	flagged, missed := r.Static[StaticFlagged], r.Static[StaticMissed]
	if flagged+missed == 0 {
		return 0
	}
	return float64(flagged+detected) / float64(flagged+missed)
}

// PrintSummary renders the matrix outcome: the per-workload static and
// baseline-seed table, the static detection rate, the per-seed
// differential breakdown, and the combined multi-seed rate.
func (r *MatrixResult) PrintSummary(w io.Writer) {
	fmt.Fprintf(w, "mutant matrix: %d workloads x %d mutants x %d machine seeds (%d units); per workload, detected/silent at baseline machine seed 0:\n",
		len(r.Rows), r.Mutants, r.MSeeds, len(r.Rows)*r.Mutants*r.MSeeds)
	fmt.Fprintf(w, "%-14s %8s %9s %8s %8s %8s %9s %8s\n",
		"workload", "mutants", "rejected", "masked", "flagged", "missed", "detected", "silent")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %8d %9d %8d %8d %8d %9d %8d\n", row.Workload, row.Mutants,
			row.Static[StaticRejected], row.Static[StaticMasked],
			row.Static[StaticFlagged], row.Static[StaticMissed],
			row.Detected, row.Silent)
	}
	fmt.Fprintf(w, "static (per mutant): %d rejected, %d masked, %d flagged, %d missed; static detection %.1f%% of decodable stream-changing mutants\n",
		r.Static[StaticRejected], r.Static[StaticMasked],
		r.Static[StaticFlagged], r.Static[StaticMissed], 100*r.StaticRate())
	for _, s := range r.Seeds {
		label := "baseline"
		if s.MSeed != 0 {
			label = "perturbed"
		}
		fmt.Fprintf(w, "  machine seed %d (%s): %d detected, %d silent of %d missed\n",
			s.MSeed, label, s.Detected, s.Silent, s.Detected+s.Silent)
	}
	fmt.Fprintf(w, "combined: %d of %d missed mutants detected under >=1 seed; combined detection %.1f%% of decodable stream-changing mutants\n",
		r.Combined, r.Static[StaticMissed], 100*r.CombinedRate())
	if len(r.Silent) == 0 {
		fmt.Fprintf(w, "silent under all seeds: none\n")
		return
	}
	fmt.Fprintf(w, "silent under all seeds: %d mutants\n", len(r.Silent))
	for _, s := range r.Silent {
		fmt.Fprintf(w, "  %s\n", s)
	}
}

// RunMatrixCampaign executes the mutant × machine-seed matrix on the
// campaign engine.
func RunMatrixCampaign(cfg MatrixConfig) (*MatrixResult, error) {
	return RunMatrixCampaignContext(context.Background(), cfg)
}

// RunMatrixCampaignContext is RunMatrixCampaign with cooperative
// cancellation; a canceled campaign leaves any store resumable.
func RunMatrixCampaignContext(ctx context.Context, cfg MatrixConfig) (*MatrixResult, error) {
	cfg.fill()
	units := cfg.UnitMatrix()
	r := &matrixRunner{cfg: &cfg}
	out := &MatrixResult{
		Mutants: cfg.Mutants,
		MSeeds:  cfg.MSeeds,
		Rows:    make([]WorkloadRow, len(cfg.Workloads)),
		Seeds:   make([]SeedRow, cfg.MSeeds),
	}
	rows := make(map[string]*WorkloadRow, len(cfg.Workloads))
	for i, name := range cfg.Workloads {
		out.Rows[i] = WorkloadRow{Workload: name, Mutants: cfg.Mutants}
		rows[name] = &out.Rows[i]
	}
	for ms := range out.Seeds {
		out.Seeds[ms].MSeed = int64(ms)
	}
	// Reduce arrives in matrix order with machine seeds innermost, so
	// each mutant's fates are contiguous: track the current mutant and
	// flush its combined fate when the next one starts.
	var curKey string
	var curMissed, curDetected bool
	flush := func() {
		if curKey == "" || !curMissed {
			return
		}
		if curDetected {
			out.Combined++
		} else {
			out.Silent = append(out.Silent, curKey)
		}
	}
	o, err := campaign.Run(ctx, campaign.Config{
		Workers:  cfg.Workers,
		Store:    cfg.Store,
		Shard:    cfg.Shard,
		Counters: cfg.Counters,
		Progress: cfg.Progress,
		Reduce: func(i int, u campaign.Unit, res campaign.Result) {
			key := fmt.Sprintf("%s#%d", u.Name, u.Mutant)
			if key != curKey {
				flush()
				curKey, curMissed, curDetected = key, false, false
			}
			row, seed := rows[u.Name], &out.Seeds[u.MSeed]
			status := StaticMissed
			switch res.Status {
			case StatusDetected:
				curMissed, curDetected = true, true
				seed.Detected++
				if u.MSeed == 0 {
					row.Detected++
				}
			case StatusSilent:
				curMissed = true
				seed.Silent++
				if u.MSeed == 0 {
					row.Silent++
				}
			default:
				for o := StaticRejected; o < StaticMissed; o++ {
					if res.Status == o.String() {
						status = o
					}
				}
			}
			// Static classification is machine-seed independent; count
			// each mutant once, at its baseline unit.
			if u.MSeed == 0 {
				out.Static[status]++
				row.Static[status]++
			}
		},
	}, units, r.Run)
	if err != nil {
		return nil, err
	}
	flush()
	sort.Strings(out.Silent)
	out.Aggregate = o.Aggregate
	out.Stats = o.Stats
	return out, nil
}
