package faults_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"tm3270/internal/campaign"
	"tm3270/internal/faults"
)

// TestMatrixCampaign runs the full mutant × machine-seed matrix and
// asserts its structural invariants: the per-workload rows add up to
// the static totals, every seed partitions the missed mutants into
// detected + silent, and the combined multi-seed rate is at least the
// baseline seed's rate. The numbers themselves are pinned by
// TestCampaignsGolden.
func TestMatrixCampaign(t *testing.T) {
	res, err := faults.RunMatrixCampaign(faults.MatrixConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var rowSum [4]int
	for _, row := range res.Rows {
		n := 0
		for o, c := range row.Static {
			rowSum[o] += c
			n += c
		}
		if n != row.Mutants {
			t.Errorf("%s: static classes sum to %d, want %d mutants", row.Workload, n, row.Mutants)
		}
		if row.Detected+row.Silent != row.Static[faults.StaticMissed] {
			t.Errorf("%s: detected %d + silent %d != missed %d",
				row.Workload, row.Detected, row.Silent, row.Static[faults.StaticMissed])
		}
	}
	if rowSum != res.Static {
		t.Errorf("workload rows sum to %v, static totals %v", rowSum, res.Static)
	}
	missed := res.Static[faults.StaticMissed]
	if len(res.Seeds) != res.MSeeds {
		t.Fatalf("%d seed rows, want %d", len(res.Seeds), res.MSeeds)
	}
	for _, s := range res.Seeds {
		if s.Detected+s.Silent != missed {
			t.Errorf("seed %d: detected %d + silent %d != missed %d",
				s.MSeed, s.Detected, s.Silent, missed)
		}
	}
	if base := res.Seeds[0].Detected; res.Combined < base {
		t.Errorf("combined %d below baseline seed's %d", res.Combined, base)
	}
	if res.Combined+len(res.Silent) != missed {
		t.Errorf("combined %d + silent %d != missed %d", res.Combined, len(res.Silent), missed)
	}
	if combined, static := res.CombinedRate(), res.StaticRate(); combined <= static {
		t.Errorf("combined detection %.3f not above static %.3f", combined, static)
	}
	// The acceptance bar: multi-seed differential detection >= 99% of
	// decodable stream-changing mutants, silent mutants enumerated.
	if rate := res.CombinedRate(); rate < 0.99 {
		t.Errorf("combined detection rate %.3f below 0.99 (silent: %v)", rate, res.Silent)
	}
}

// TestStaticCampaignFlagsMutants runs a reduced matrix at the baseline
// seed only and asserts the static acceptance property: some
// still-decodable mutants change the instruction stream, and the
// verifier flags a nonzero fraction of them before execution.
func TestStaticCampaignFlagsMutants(t *testing.T) {
	res, err := faults.RunMatrixCampaign(faults.MatrixConfig{
		Workloads: []string{"memcpy", "filter"},
		Mutants:   48,
		MSeeds:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	total := 0
	for _, c := range res.Static {
		total += c
	}
	if total != 2*48 {
		t.Errorf("classified %d mutants, want %d", total, 2*48)
	}
	if res.Static[faults.StaticFlagged] == 0 {
		t.Errorf("no mutant was flagged statically: %+v", res.Rows)
	}
	if r := res.StaticRate(); r <= 0 || r > 1 {
		t.Errorf("detection rate %v outside (0, 1]", r)
	}

	var b strings.Builder
	res.PrintSummary(&b)
	for _, want := range []string{"memcpy", "filter", "static detection"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, b.String())
		}
	}
}

// TestMatrixResumeByteIdentical kills nothing but proves the store
// contract on the mutant matrix: a fresh run into a store and a pure
// cache-read re-run produce byte-identical aggregates.
func TestMatrixResumeByteIdentical(t *testing.T) {
	cfg := faults.MatrixConfig{
		Workloads: []string{"memset"},
		Mutants:   16,
		MSeeds:    2,
	}
	dir := filepath.Join(t.TempDir(), "store")
	runOnce := func() (*faults.MatrixResult, []byte) {
		st, err := campaign.Open(dir, campaign.Shard{}.Label(), cfg.Spec())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		c := cfg
		c.Store = st
		res, err := faults.RunMatrixCampaign(c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.Aggregate.MarshalJSONDeterministic()
		if err != nil {
			t.Fatal(err)
		}
		return res, b
	}
	fresh, fb := runOnce()
	if fresh.Stats.Executed == 0 {
		t.Fatal("fresh run executed no units")
	}
	resumed, rb := runOnce()
	if resumed.Stats.Executed != 0 {
		t.Errorf("resumed run executed %d units, want pure cache read", resumed.Stats.Executed)
	}
	if resumed.Stats.Cached != fresh.Stats.Total {
		t.Errorf("resumed run cached %d of %d units", resumed.Stats.Cached, fresh.Stats.Total)
	}
	if !bytes.Equal(fb, rb) {
		t.Errorf("aggregates differ:\nfresh:\n%s\nresumed:\n%s", fb, rb)
	}
}
