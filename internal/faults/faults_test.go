package faults_test

import (
	"strings"
	"testing"
	"time"

	"tm3270/internal/faults"
	"tm3270/internal/workloads"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in    string
		want  faults.Spec
		isErr bool
	}{
		{in: "bitflip", want: faults.Spec{Kind: faults.BitFlip, Rate: 0.01, Delay: 200}},
		{in: "droppf:0.5", want: faults.Spec{Kind: faults.DropPrefetch, Rate: 0.5, Delay: 200}},
		{in: "busdelay:0.1:400", want: faults.Spec{Kind: faults.BusDelay, Rate: 0.1, Delay: 400}},
		{in: "loadflip::321", want: faults.Spec{Kind: faults.LoadFlip, Rate: 0.01, Delay: 321}},
		{in: "nosuch", isErr: true},
		{in: "bitflip:2", isErr: true},
		{in: "bitflip:0.5:-1", isErr: true},
		{in: "bitflip:0.5:10:extra", isErr: true},
	}
	for _, c := range cases {
		got, err := faults.ParseSpec(c.in)
		if c.isErr {
			if err == nil {
				t.Errorf("ParseSpec(%q) accepted, want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestCampaignSmall runs a reduced campaign: every run must classify
// without a hang or panic, and the memcpy bit-flip runs must detect at
// least one fault (a flipped source byte propagates to the output).
func TestCampaignSmall(t *testing.T) {
	p := workloads.Small()
	cfg := faults.CampaignConfig{
		Workloads: []string{"memcpy", "blockwalk_pf"},
		Specs: []faults.Spec{
			{Kind: faults.BitFlip},
			{Kind: faults.DropPrefetch, Rate: 0.5},
		},
		Seeds:    4,
		Params:   &p,
		Deadline: time.Minute,
	}
	res, err := faults.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.PrintRuns(&sb)
	if res.Runs() != 2*2*4 {
		t.Fatalf("campaign ran %d runs, want 16", res.Runs())
	}
	total := res.Counts[faults.Masked] + res.Counts[faults.DetectedTrap] + res.Counts[faults.DetectedDivergence]
	if total != res.Runs() {
		t.Errorf("outcome counts sum to %d, want %d", total, res.Runs())
	}
	if lines := strings.Count(sb.String(), "\n"); lines != res.Runs() {
		t.Errorf("campaign printed %d classification lines, want %d", lines, res.Runs())
	}

	// memcpy copies every source byte: a bit flip inside the source
	// region must surface as a divergence for at least one seed.
	detected := 0
	for _, r := range res.Reports {
		if r.Workload == "memcpy" && r.Spec.Kind == faults.BitFlip && r.Outcome != faults.Masked {
			detected++
		}
	}
	if detected == 0 {
		t.Error("no memcpy bitflip run detected its fault")
	}

	// Dropped prefetches are performance faults: they must never
	// corrupt functional state.
	for _, r := range res.Reports {
		if r.Spec.Kind == faults.DropPrefetch && r.Outcome != faults.Masked {
			t.Errorf("%s droppf seed %d classified %s: a dropped prefetch must be functionally invisible (%s)",
				r.Workload, r.Seed, r.Outcome, r.Detail)
		}
	}
}

// TestCampaignDeterminism: the same configuration must reproduce the
// same classifications and the same injection counts.
func TestCampaignDeterminism(t *testing.T) {
	p := workloads.Small()
	cfg := faults.CampaignConfig{
		Workloads: []string{"memcpy"},
		Specs:     []faults.Spec{{Kind: faults.BitFlip}, {Kind: faults.LoadFlip, Rate: 0.001}},
		Seeds:     3,
		Params:    &p,
	}
	a, err := faults.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := faults.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Reports) != len(b.Reports) {
		t.Fatalf("run counts differ: %d vs %d", len(a.Reports), len(b.Reports))
	}
	for i := range a.Reports {
		if a.Reports[i] != b.Reports[i] {
			t.Errorf("run %d differs:\n  %+v\n  %+v", i, a.Reports[i], b.Reports[i])
		}
	}
}

// TestBusDelayIsTimingOnly: bus-latency spikes slow the run down but
// must never change functional state.
func TestBusDelayIsTimingOnly(t *testing.T) {
	p := workloads.Small()
	cfg := faults.CampaignConfig{
		Workloads: []string{"filter"},
		Specs:     []faults.Spec{{Kind: faults.BusDelay, Rate: 0.2, Delay: 300}},
		Seeds:     3,
		Params:    &p,
	}
	res, err := faults.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Reports {
		if r.Outcome != faults.Masked {
			t.Errorf("busdelay seed %d: %s (%s), want masked", r.Seed, r.Outcome, r.Detail)
		}
	}
}
