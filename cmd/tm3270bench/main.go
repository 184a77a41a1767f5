// Command tm3270bench regenerates the paper's tables and figures from
// the processor model. With no flags it runs the complete evaluation at
// paper scale; individual experiments select via flags, and -quick runs
// reduced sizes. The -json flag writes the versioned machine-readable
// bench result (per-workload cycles, CPI/OPI and the full telemetry
// counter snapshot) — the `BENCH_*.json` trajectory format — and
// schema-checks it after writing.
//
// The matrix experiments (-json, -figure7) execute on the batch
// runner: -parallel N bounds concurrent simulations (default
// GOMAXPROCS, 1 = serial) and a process-wide compile-artifact cache
// stops identical programs from recompiling across experiments. The
// aggregation is job-ordered and every run isolated, so -json output
// is byte-identical for any -parallel value.
//
// Usage:
//
//	tm3270bench [-quick] [-parallel N] [-json out.json] [-table1]
//	            [-table3] [-table4] [-table6] [-figure1] [-figure3]
//	            [-figure7] [-ablation] [-faults] [-cosim]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"tm3270/internal/config"
	"tm3270/internal/cosim"
	"tm3270/internal/experiments"
	"tm3270/internal/faults"
	"tm3270/internal/runner"
	"tm3270/internal/tmsim"
	"tm3270/internal/workloads"
)

func main() {
	quick := flag.Bool("quick", false, "reduced workload sizes")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"concurrent simulations for the matrix experiments (1 = serial)")
	t1 := flag.Bool("table1", false, "architecture summary")
	t3 := flag.Bool("table3", false, "CABAC decoding measurements")
	t4 := flag.Bool("table4", false, "area/power breakdown")
	t6 := flag.Bool("table6", false, "TM3260 vs TM3270 characteristics")
	f1 := flag.Bool("figure1", false, "instruction encoding statistics")
	f3 := flag.Bool("figure3", false, "region prefetch block walk")
	f7 := flag.Bool("figure7", false, "relative performance A-D")
	ab := flag.Bool("ablation", false, "motion-estimation ablation")
	sweep := flag.Bool("sweep", false, "cache capacity x line-size design sweep")
	wcet := flag.Bool("wcet", false, "static worst-case cycle bounds vs measured")
	fc := flag.Bool("faults", false, "seeded fault-injection campaign")
	csim := flag.Bool("cosim", false, "differential conformance campaign (pipeline vs reference model)")
	engines := flag.Bool("engine", false, "execution-engine retire-rate comparison (interp vs blockcache per target)")
	jsonOut := flag.String("json", "", "write the machine-readable bench result to this file")
	flag.Parse()

	all := !(*t1 || *t3 || *t4 || *t6 || *f1 || *f3 || *f7 || *ab || *sweep || *wcet || *fc || *csim || *engines || *jsonOut != "")
	p := workloads.Full()
	meW, meH := 352, 288
	if *quick {
		p = workloads.Small()
		p.ImageW, p.ImageH, p.FieldH = 128, 64, 32
		p.Mpeg2W, p.Mpeg2H = 128, 64
		p.CabacIBits, p.CabacPBits, p.CabacBBits = 20000, 12000, 15000
		p.MP3Granules = 32
		meW, meH = 64, 48
	}

	// One artifact cache for the whole invocation: figure7 and the JSON
	// bench compile overlapping (workload, target) pairs.
	cache := runner.NewCache()

	run := func(name string, f func() error) {
		start := time.Now()
		if err := f(); err != nil {
			// Keep the partial campaign timing even on failure.
			fmt.Fprintf(os.Stderr, "%s: %v (failed after %.1fs)\n",
				name, err, time.Since(start).Seconds())
			os.Exit(1)
		}
		fmt.Printf("[%s in %.1fs]\n\n", name, time.Since(start).Seconds())
	}

	if *jsonOut != "" {
		run("bench-json", func() error {
			rep, err := experiments.BenchJSON(p, *quick, *parallel, cache)
			if err != nil {
				return err
			}
			if err := experiments.WriteBenchJSON(*jsonOut, rep); err != nil {
				return err
			}
			// Re-read what landed on disk: the written file is the
			// artifact the trajectory consumes, so schema-check it, not
			// the in-memory copy.
			if _, err := experiments.ReadBenchJSON(*jsonOut); err != nil {
				return err
			}
			fmt.Printf("wrote %s: %d workloads on %s\n", *jsonOut, len(rep.Workloads), rep.Target)
			return nil
		})
	}

	if all || *t1 {
		run("table1", func() error { experiments.Table1(os.Stdout); return nil })
	}
	if all || *t6 {
		run("table6", func() error { experiments.Table6(os.Stdout); return nil })
	}
	if all || *f1 {
		run("figure1", func() error { return experiments.Figure1(os.Stdout, p) })
	}
	if all || *t4 {
		run("table4", func() error { return experiments.Table4(os.Stdout, p) })
	}
	if all || *f3 {
		run("figure3", func() error { return experiments.Figure3(os.Stdout, p) })
	}
	if all || *t3 {
		run("table3", func() error {
			rows, err := experiments.Table3(p)
			if err != nil {
				return err
			}
			experiments.PrintTable3(os.Stdout, rows)
			return nil
		})
	}
	if all || *ab {
		run("ablation", func() error { return experiments.Ablation(os.Stdout, meW, meH) })
	}
	if all || *sweep {
		run("sweep", func() error { return experiments.LineSizeSweep(os.Stdout, p) })
	}
	if all || *wcet {
		run("wcet", func() error { return experiments.WCETTable(os.Stdout, p) })
	}
	if all || *fc {
		run("faults", func() error {
			// Small workload sizes keep the campaign dense: 4 workloads
			// x 4 injectors x 13 seeds = 208 classified runs.
			res, err := faults.RunCampaign(faults.CampaignConfig{})
			if err != nil {
				return err
			}
			res.PrintRuns(os.Stdout)
			res.PrintSummary(os.Stdout)
			// The mutant matrix: seeded single-bit image flips that still
			// decode must be flagged by binverify before execution, and
			// every statically-missed mutant executes on the reference
			// model under several machine seeds (randomized initial
			// register and memory state) and diffs against the golden run.
			fmt.Println()
			mres, err := faults.RunMatrixCampaign(faults.MatrixConfig{})
			if err != nil {
				return err
			}
			mres.PrintSummary(os.Stdout)
			return nil
		})
	}
	if all || *csim {
		run("cosim", func() error {
			// Both execution engines run the identical campaign against
			// the architectural reference model. Each must diverge zero
			// times — which transitively proves the fast path and the
			// interpreter agree on every covered program.
			for _, eng := range []tmsim.Engine{tmsim.EngineBlockCache, tmsim.EngineInterp} {
				fmt.Printf("engine %s vs reference model:\n", eng)
				camp, err := cosim.RunCampaign(cosim.CampaignConfig{
					Params: &p,
					Opts:   cosim.Options{Engine: eng},
				})
				if err != nil {
					return err
				}
				camp.PrintSummary(os.Stdout)
				if len(camp.Divergent) > 0 {
					return fmt.Errorf("%d divergent runs on the %s engine", len(camp.Divergent), eng)
				}
			}
			return nil
		})
	}
	if all || *engines {
		run("engine", func() error {
			// The paper's four configurations; A and D are the TM3260 and
			// TM3270 shipping parts.
			targets := []config.Target{
				config.ConfigA(), config.ConfigB(), config.ConfigC(), config.ConfigD(),
			}
			rows, err := experiments.EngineComparison(p, targets)
			if err != nil {
				return err
			}
			experiments.PrintEngineComparison(os.Stdout, rows)
			return nil
		})
	}
	if all || *f7 {
		run("figure7", func() error {
			rows, err := experiments.Figure7(p, *parallel, cache)
			if err != nil {
				return err
			}
			experiments.PrintFigure7(os.Stdout, rows)
			return nil
		})
	}
	if cs := cache.Stats(); cs.Hits > 0 {
		fmt.Printf("[artifact cache: %d compiles, %d reused]\n", cs.Misses, cs.Hits)
	}
}
