// Package campaign is the scale-out layer of the verification stack: a
// generic engine that models a campaign as a deterministic matrix of
// work units (program seed × target × engine × mutant × machine seed),
// content-addresses each unit, persists results to an append-only
// on-disk store, and fans units out across a bounded worker pool.
//
// The contract that makes campaigns resumable and shardable:
//
//   - A unit is a pure value. Its Hash is computed from the unit spec
//     alone, so the same campaign enumerates the same hashes on every
//     run, in every process.
//   - A unit's Result depends only on its spec (the runners are
//     deterministic simulations), so a stored result is as good as a
//     fresh one: a killed campaign resumes exactly where it stopped,
//     and re-running a finished campaign is a pure cache read.
//   - The aggregate is reduced in unit-matrix order from the result
//     map, never in store/arrival order, so the aggregate of a resumed,
//     sharded, or differently-parallel run is byte-identical to a
//     single-process run.
//
// Shards are independent processes over the same unit matrix: shard
// i/n owns the units whose index ≡ i-1 (mod n), appends results to its
// own record file in a shared store directory, and the merged store is
// simply the union of the record files — a final 1/1 pass over the
// matrix reads every unit from the store and emits the aggregate.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"tm3270/internal/telemetry"
)

// hashSalt versions the content-address scheme: changing the Unit
// encoding or result semantics must invalidate old stores.
const hashSalt = "tm3270-campaign/v1"

// Unit identifies one work unit of a campaign matrix. It is a pure
// value: every field participates in the content hash, and zero fields
// are omitted from the canonical encoding so extending the struct does
// not move the hashes of existing campaigns.
type Unit struct {
	// Kind names the unit runner: "cosim-wl", "cosim-gen", "mutant",
	// "fault".
	Kind string `json:"kind"`
	// Name is the workload registry name (workload, mutant and fault
	// units).
	Name string `json:"name,omitempty"`
	// Seed is the program-generator seed (generated-program units) or
	// the injector seed (fault units).
	Seed int64 `json:"seed,omitempty"`
	// Ops is the generator's operation budget (generated-program units).
	Ops int `json:"ops,omitempty"`
	// Target is the processor configuration name.
	Target string `json:"target,omitempty"`
	// Engine is the pipeline model's execution engine.
	Engine string `json:"engine,omitempty"`
	// Mutant is the image-mutation seed (mutant units).
	Mutant int64 `json:"mutant,omitempty"`
	// MSeed is the machine seed perturbing initial register/memory
	// state (mutant units; 0 = the unperturbed baseline).
	MSeed int64 `json:"mseed,omitempty"`
	// Inject is the injector spec in its faults.Spec String form
	// (fault units).
	Inject string `json:"inject,omitempty"`
	// Lockstep arms per-instruction intermediate-state diffing for this
	// unit (sample-gated cosim units).
	Lockstep bool `json:"lockstep,omitempty"`
}

// Hash is the unit's content address: a salted SHA-256 over the
// canonical JSON encoding, truncated to 24 hex digits. Struct-field
// order makes encoding/json deterministic, so the same spec always
// yields the same hash.
func (u Unit) Hash() string {
	b, err := json.Marshal(u)
	if err != nil {
		panic(fmt.Sprintf("campaign: unit not encodable: %v", err)) //tmvet:allow pure-value struct cannot fail to encode
	}
	sum := sha256.Sum256(append([]byte(hashSalt+"\x00"), b...))
	return hex.EncodeToString(sum[:12])
}

// String renders a compact human-readable unit key for reports.
func (u Unit) String() string {
	s := u.Kind
	if u.Name != "" {
		s += ":" + u.Name
	}
	if u.Seed != 0 {
		s += fmt.Sprintf(":seed%d", u.Seed)
	}
	if u.Mutant != 0 {
		s += fmt.Sprintf(":mut%d", u.Mutant)
	}
	if u.Inject != "" {
		s += ":" + u.Inject
	}
	s += fmt.Sprintf(":m%d", u.MSeed)
	if u.Target != "" {
		s += " on " + u.Target
	}
	return s
}

// Result is the outcome of one unit. Results are pure values too: the
// aggregate is a deterministic function of the (unit, result) pairs.
type Result struct {
	// Status classifies the outcome ("ok", "divergent", "skipped",
	// "rejected", "masked", "flagged", "detected", "silent", ...).
	// The set is campaign-specific; the engine only counts them.
	Status string `json:"status"`
	// Detail carries the divergence or detection description.
	Detail string `json:"detail,omitempty"`
	// Instrs is the number of instructions the unit retired.
	Instrs int64 `json:"instrs,omitempty"`
	// Bad marks results the aggregate lists individually (divergences,
	// silent mutants).
	Bad bool `json:"bad,omitempty"`
}

// Finding pairs a noteworthy unit with its result in the aggregate.
type Finding struct {
	Unit   Unit   `json:"unit"`
	Result Result `json:"result"`
}

// Aggregate is the deterministic reduction of a campaign: identical
// for a fresh, resumed, sharded-and-merged, or differently-parallel
// run of the same matrix. It deliberately excludes anything
// run-dependent (timing, cache hits, shard layout).
type Aggregate struct {
	// Spec is the campaign fingerprint the store was opened with.
	Spec string `json:"spec"`
	// Units is the number of units reduced (the covered matrix).
	Units int `json:"units"`
	// ByStatus counts results per status (sorted keys in JSON).
	ByStatus map[string]int `json:"by_status"`
	// Instrs sums retired instructions over all units.
	Instrs int64 `json:"instrs"`
	// Bad lists the flagged findings in unit-matrix order.
	Bad []Finding `json:"bad,omitempty"`
}

// MarshalJSONDeterministic renders the aggregate as stable indented
// JSON bytes: map keys are sorted by encoding/json and Bad preserves
// matrix order, so two equal aggregates are byte-identical.
func (a *Aggregate) MarshalJSONDeterministic() ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Counters are the engine's campaign.* telemetry counters. A caller
// registers one instance once and may share it across campaign runs;
// the engine adds to it atomically.
type Counters struct {
	Total    int64 // units covered by this process's shard selection
	Executed int64 // units actually run (store misses)
	Cached   int64 // units satisfied from the store
	Bad      int64 // results with Bad set
	Corrupt  int64 // store records dropped at open (checksum/torn)
}

// Register wires the counters into a telemetry registry under the
// campaign.* names.
func (c *Counters) Register(r *telemetry.Registry) {
	r.Counter("campaign.units.total", &c.Total)
	r.Counter("campaign.units.executed", &c.Executed)
	r.Counter("campaign.units.cached", &c.Cached)
	r.Counter("campaign.units.bad", &c.Bad)
	r.Counter("campaign.store.corrupt", &c.Corrupt)
}
