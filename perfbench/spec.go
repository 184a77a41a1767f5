package main

import (
	"bytes"
	"encoding/json"
)

// metricDef names one reported metric. Bound is the share of the
// parent commit's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef is one benchmark workload and the reason it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the length of one measured window, in seconds.
const runSeconds = 30

var workloadDefs = []workloadDef{
	{"paper", "all 26 kernels at paper scale on target D from precompiled artifacts: the simulator-bound paper-bench driver"},
	{"cosim", "the default conformance campaign (2104 units, A-D, seed shifts the progen range): compiler-bound, translation-heavy"},
	{"serve", "in-process tm3270d, 2 closed-loop clients over 8 small sessions, 2 with verify: the service layer and binverify"},
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. An op is a kernel run (paper), a campaign unit (cosim)
// or a served reply (serve). latency_* is the round trip of a campaign
// unit or a served reply, and for paper the wall time of a whole pass
// over the kernels.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"sim_minstr_per_s", "Minstr/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics. Host times are per op of the
// workload (kernel run, campaign unit, served reply); simulated counts
// are per pass (26 kernels, one campaign, one request to each session)
// and repeat exactly. A layer that does not run on a workload reads 0.
var perLayer = []metricDef{
	{"progen.generate.ms", "ms/op", "lower", 0},
	{"sched.schedule.ms", "ms/op", "lower", 0},
	{"sched.schedule.allocs", "allocs/op", "lower", 0},
	{"sched.verify.ms", "ms/op", "lower", 0},
	{"regalloc.allocate.ms", "ms/op", "lower", 0},
	{"encode.encode.ms", "ms/op", "lower", 0},
	{"encode.decode.ms", "ms/op", "lower", 0},
	{"binverify.verify.ms", "ms/op", "lower", 0},
	{"binverify.calls", "calls/op", "lower", 0},
	{"workloads.init.ms", "ms/op", "lower", 0},
	{"workloads.check.ms", "ms/op", "lower", 0},
	{"tmsim.load.ms", "ms/op", "lower", 0},
	{"tmsim.run.ms", "ms/op", "lower", 0},
	{"tmsim.minstr_per_s", "Minstr/s", "higher", 0},
	{"tmsim.sim_instrs", "count", "lower", 0},
	{"tmsim.sim_cycles", "count", "lower", 0},
	{"blockcache.translated", "count", "lower", 0},
	{"blockcache.hits", "count", "higher", 0},
	{"blockcache.hit_ratio", "ratio", "higher", 0},
	{"refmodel.run.ms", "ms/op", "lower", 0},
	{"campaign.overhead.ms", "ms/op", "lower", 0},
	{"campaign.units", "count", "higher", 0},
	{"service.queue.ms", "ms/op", "lower", 0},
	{"service.execute.ms", "ms/op", "lower", 0},
	{"service.encode.ms", "ms/op", "lower", 0},
	{"service.overhead.ms", "ms/op", "lower", 0},
	{"service.shed", "count", "lower", 0},
	{"runner.cache.hit_ratio", "ratio", "higher", 0},
	{"unattributed.ms", "ms/op", "lower", 0},
	{"trace_overhead.ops_per_s", "1/s", "higher", 0},
	{"trace_overhead.sim_minstr_per_s", "Minstr/s", "higher", 0},
	{"trace_overhead.latency_p50_ms", "ms", "lower", 0},
	{"trace_overhead.latency_p99_ms", "ms", "lower", 0},
}

// benchmarkJSON renders the benchmark definition file (BENCHMARK.json
// at the repository root) from the tables above.
func benchmarkJSON() ([]byte, error) {
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layerDef, len(perLayer))
	for i, m := range perLayer {
		layers[i] = layerDef{m.Name, m.Unit, m.Better}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   layers,
	})
	return buf.Bytes(), err
}
