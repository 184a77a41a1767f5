package faults_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tm3270/internal/faults"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden campaign fingerprint")

// TestCampaignsGolden pins every number the default fault campaigns
// report: the 208-run injection campaign run by run, the mutant
// matrix's deterministic aggregate and unit hashes, the per-workload
// static and baseline-seed rows, the per-seed rows, and the static and
// combined detection rates. Any refactor of the campaign runners must
// reproduce this file byte for byte; rerun with -update only for a
// deliberate change of campaign semantics.
func TestCampaignsGolden(t *testing.T) {
	var b strings.Builder

	inj, err := faults.RunCampaign(faults.CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "== injection campaign\n")
	for _, r := range inj.Reports {
		fmt.Fprintf(&b, "%s %s seed=%d %s events=%d\n", r.Workload, r.Spec, r.Seed, r.Outcome, r.Injected)
	}
	fmt.Fprintf(&b, "totals: %d runs, %d detected-trap, %d detected-divergence, %d masked\n",
		inj.Runs(), inj.Counts[faults.DetectedTrap], inj.Counts[faults.DetectedDivergence], inj.Counts[faults.Masked])

	cfg := faults.MatrixConfig{}
	mat, err := faults.RunMatrixCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := mat.Aggregate.MarshalJSONDeterministic()
	if err != nil {
		t.Fatal(err)
	}
	hashes := sha256.New()
	for _, u := range cfg.UnitMatrix() {
		fmt.Fprintln(hashes, u.Hash())
	}
	fmt.Fprintf(&b, "== mutant matrix\nspec: %s\nunit hashes: %x\naggregate:\n%s", cfg.Spec(), hashes.Sum(nil), agg)

	fmt.Fprintf(&b, "workload rows (rejected masked flagged missed | seed-0 detected silent):\n")
	for _, r := range mat.Rows {
		fmt.Fprintf(&b, "%s mutants=%d %d %d %d %d | %d %d\n", r.Workload, r.Mutants,
			r.Static[faults.StaticRejected], r.Static[faults.StaticMasked],
			r.Static[faults.StaticFlagged], r.Static[faults.StaticMissed], r.Detected, r.Silent)
	}
	fmt.Fprintf(&b, "seed rows:\n")
	for _, s := range mat.Seeds {
		fmt.Fprintf(&b, "seed %d: %d detected, %d silent\n", s.MSeed, s.Detected, s.Silent)
	}
	fmt.Fprintf(&b, "static detection %.1f%%\ncombined detection %.1f%%\n",
		100*mat.StaticRate(), 100*mat.CombinedRate())
	got := b.String()

	path := filepath.Join("testdata", "campaigns.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("campaign fingerprint changed (rerun with -update if deliberate)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
