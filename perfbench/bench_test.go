package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"tm3270/internal/config"
	"tm3270/internal/cosim"
	"tm3270/internal/mem"
	"tm3270/internal/workloads"
)

func TestCosimUnitsArePureFunctionOfSeed(t *testing.T) {
	a, b := defaultCosimConfig(7), defaultCosimConfig(7)
	ua, ub := a.units(), b.units()
	if !reflect.DeepEqual(ua, ub) {
		t.Fatal("same seed, different unit lists")
	}
	if len(ua) != 2104 {
		t.Fatalf("default matrix has %d units, want 2104", len(ua))
	}
	c := defaultCosimConfig(8)
	if reflect.DeepEqual(ua, c.units()) {
		t.Fatal("seeds 7 and 8 gave the same unit list")
	}
	// Seed 0 is cosim's own default matrix, unit for unit.
	z := defaultCosimConfig(0)
	if want := (&cosim.CampaignConfig{}).UnitMatrix(); !reflect.DeepEqual(z.units(), want) {
		t.Fatal("seed 0 does not reproduce cosim.CampaignConfig's default unit matrix")
	}
}

func TestServeRequestOrderIsPureFunctionOfSeed(t *testing.T) {
	for c := 0; c < 2; c++ {
		if !reflect.DeepEqual(requestOrder(5, c, 8, 100), requestOrder(5, c, 8, 100)) {
			t.Fatal("same seed and client, different orders")
		}
	}
	if reflect.DeepEqual(requestOrder(5, 0, 8, 100), requestOrder(6, 0, 8, 100)) {
		t.Fatal("seeds 5 and 6 gave the same order")
	}
	if reflect.DeepEqual(requestOrder(5, 0, 8, 100), requestOrder(5, 1, 8, 100)) {
		t.Fatal("clients 0 and 1 share an order")
	}
	order := requestOrder(5, 0, 8, 64)
	for r := 0; r < len(order); r += 8 {
		round := append([]int(nil), order[r:r+8]...)
		sort.Ints(round)
		if !reflect.DeepEqual(round, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
			t.Fatalf("round %d is not a permutation: %v", r/8, order[r:r+8])
		}
	}
}

// TestBenchmarkJSONIsCurrent keeps the committed definition file in
// step with the metric tables; regenerate it with
// `go run . -write-spec ../BENCHMARK.json`.
func TestBenchmarkJSONIsCurrent(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, want) {
		t.Fatal("BENCHMARK.json differs from the metric tables; regenerate it with -write-spec")
	}
}

// specNames reads the metric names of one section of BENCHMARK.json.
func specNames(t *testing.T, section string) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(spec[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func tinyPaper() *paperBench {
	return newPaper(paperConfig{
		params:    workloads.Small(),
		names:     []string{"memcpy", "filter", "mpeg2_a", "mp3_synth"},
		target:    config.ConfigD(),
		warmNames: []string{"memcpy"},
	})
}

func tinyCosim() *cosimBench {
	return newCosim(cosimConfig{
		params:        workloads.Small(),
		names:         []string{"memcpy", "cabac_opt_p"},
		seeds:         8,
		seedBase:      cosimSeedBase(3, 8),
		genOps:        64,
		lockstepEvery: 4,
		targets:       []config.Target{config.ConfigA(), config.ConfigD()},
		workers:       1,
	})
}

func tinyServe() *serveBench {
	cfg := defaultServeConfig(3)
	cfg.sessions = []serveSession{{"memcpy", false}, {"mp3_synth", true}}
	cfg.clients, cfg.warmRounds, cfg.replays = 1, 1, 1
	return newServe(cfg)
}

// TestSmoke runs every workload at tiny scale, untraced and traced:
// each must pass its output checks and print exactly the metric names
// BENCHMARK.json lists for the mode.
func TestSmoke(t *testing.T) {
	cases := []struct {
		name string
		b    func() bench
	}{
		{"paper", func() bench { return tinyPaper() }},
		{"cosim", func() bench { return tinyCosim() }},
		{"serve", func() bench { return tinyServe() }},
	}
	for _, c := range cases {
		for _, traced := range []bool{false, true} {
			out, err := execute(context.Background(), c.b(), 200*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", c.name, traced, err)
			}
			if out.failed > 0 || out.checkErr != nil || out.attempted == 0 {
				t.Fatalf("%s traced=%v: %d of %d failed %v, check %v", c.name, traced,
					out.failed, out.attempted, out.failures, out.checkErr)
			}
			defs, section := endToEnd, "end_to_end"
			if traced {
				defs, section = perLayer, "per_layer"
			}
			var buf bytes.Buffer
			if err := report(&buf, defs, out, true); err != nil {
				t.Fatalf("%s traced=%v: %v", c.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct bool
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if want := specNames(t, section); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s traced=%v printed %v, BENCHMARK.json lists %v", c.name, traced, got, want)
			}
			if len(lines)-1 != len(defs) {
				t.Fatalf("%s traced=%v: %d metric lines, want %d", c.name, traced, len(lines)-1, len(defs))
			}
		}
	}
}

// TestOutputCheckFails proves a wrong kernel output fails its op.
func TestOutputCheckFails(t *testing.T) {
	b := tinyPaper()
	if err := b.setUp(); err != nil {
		t.Fatal(err)
	}
	b.kernels[0].spec.Check = func(*mem.Func) error { return errors.New("wrong output") }
	w, err := b.measure(context.Background(), time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.failed != 1 || !strings.Contains(w.failures[0], "wrong output") {
		t.Fatalf("failed=%d failures=%v, want the broken check reported", w.failed, w.failures)
	}
}

func TestSamePassComparesCounts(t *testing.T) {
	a := passCounts{instrs: 10, cycles: 12, haveCycles: true, aggregate: "x"}
	if err := samePass(a, a); err != nil {
		t.Fatal(err)
	}
	b := a
	b.cycles++
	if samePass(a, b) == nil {
		t.Fatal("cycle difference not reported")
	}
	b = a
	b.aggregate = "y"
	if samePass(a, b) == nil {
		t.Fatal("aggregate difference not reported")
	}
}
